// Package ingress implements NADINO's cluster-wide ingress gateway (§3.6)
// and the two NGINX-based baselines of §4.1.3: the gateway terminates
// external HTTP/TCP connections and either converts payloads to RDMA at the
// cluster edge (NADINO) or proxies HTTP over TCP to the worker node, which
// must terminate TCP again ("deferred" conversion, Fig. 4).
//
// The gateway follows the paper's master-worker model: run-to-completion
// worker processes pinned to cores, RSS distribution of client connections,
// and a hysteresis autoscaler driven by refined (useful-work) CPU
// accounting.
package ingress

import (
	"fmt"
	"time"

	"nadino/internal/flightrec"
	"nadino/internal/metrics"
	"nadino/internal/params"
	"nadino/internal/ring"
	"nadino/internal/sim"
	"nadino/internal/speculate"
	"nadino/internal/trace"
	"nadino/internal/transport"
)

// Kind selects an ingress design.
type Kind int

// Ingress designs compared in Fig. 13/14.
const (
	// Nadino terminates client TCP with F-stack and converts to RDMA at
	// the edge — no TCP/IP processing inside the cluster.
	Nadino Kind = iota
	// FIngress is NGINX-on-F-stack proxying HTTP/TCP to the worker node.
	FIngress
	// KIngress is NGINX on the interrupt-driven kernel stack.
	KIngress
)

func (k Kind) String() string {
	switch k {
	case Nadino:
		return "NADINO-Ingress"
	case FIngress:
		return "F-Ingress"
	case KIngress:
		return "K-Ingress"
	}
	return "?"
}

// clientStack is the TCP stack the gateway uses toward external clients.
func (k Kind) clientStack() transport.Stack {
	if k == KIngress {
		return transport.Kernel
	}
	return transport.FStack
}

// Request is one external client HTTP request.
type Request struct {
	ID        uint64
	Client    int
	Chain     string // application chain to invoke (end-to-end experiments)
	Bytes     int
	RespBytes int
	Stamp     time.Duration
	// Reply delivers the response to the client (engine context), already
	// delayed by the external network.
	Reply func(Response)
	// Trace is the request's latency-attribution trace (nil when untraced).
	Trace *trace.Req
	// Clone overrides the gateway speculation policy's clone factor for
	// this request (0 defers to the policy). Hedge, when positive, forces
	// a hedged retry with that deadline floor even on a non-speculating
	// gateway — trace replays carry both per arrival.
	Clone int
	Hedge time.Duration
	// Group and Arm identify a cloned request's speculation group and arm
	// inside the backend; the gateway stamps them when it fires the arms.
	Group *speculate.Group
	Arm   int
}

// Response is the gateway's answer to a Request.
type Response struct {
	ID    uint64
	Bytes int
	Stamp time.Duration // original request stamp, for latency accounting
}

// Backend is whatever serves requests behind the gateway — the full
// simulated cluster in the end-to-end experiments, or an echo worker node
// in the microbenchmarks. done is invoked in engine context when the
// response arrives back at the ingress node.
type Backend interface {
	Forward(req Request, done func(Response))
}

// Config assembles a gateway.
type Config struct {
	Kind           Kind
	InitialWorkers int
	MaxWorkers     int
	AutoScale      bool
	// QueueCap bounds each worker's event queue; arrivals beyond it are
	// dropped (the overloaded K-Ingress disconnects clients, Fig. 14).
	QueueCap int
	// ExtraPerRequest is an additional per-request processing cost, used
	// to model heavier gateways (NightCore's built-in kernel gateway).
	ExtraPerRequest time.Duration
	// Speculate configures request cloning and hedged retries at the
	// ingress boundary (zero value = no speculation). Clone arms fan out
	// through the regular backend path — per-tenant pools, DWRR, gateway
	// credit windows — and losers are cancelled wherever they happen to
	// be when the first arm completes.
	Speculate speculate.Policy
}

// workerEvent flows through a worker's run-to-completion loop.
type workerEvent struct {
	isResp bool
	req    Request
	resp   Response
	// reply is the client callback carried through the response path.
	reply func(Response)
	tr    *trace.Req
}

// worker is one gateway worker process pinned to a core.
type worker struct {
	id     int
	actor  string // span label, precomputed (was a per-request Sprintf)
	core   *sim.Processor
	q      ring.Deque[workerEvent]
	wake   *sim.Signal
	active bool
	util   metrics.UtilSampler
}

// Gateway is the cluster-wide ingress.
type Gateway struct {
	eng     *sim.Engine
	p       *params.Params
	cfg     Config
	backend Backend

	workers []*worker
	nActive int

	pausedUntil      time.Duration
	injectedRestarts int

	served  *metrics.Meter
	dropped uint64
	nextID  uint64

	// Series populated when StartRecorder is called.
	RPSSeries     *metrics.Series
	CPUSeries     *metrics.Series // cores' worth of CPU in use
	WorkersSeries *metrics.Series
	scaleEvents   int

	// Flight recorder hook (optional): sheds and restart windows land in
	// the ring under this gateway's interned actor id.
	rec      *flightrec.Recorder
	recActor uint16

	// spec is the speculation controller, constructed when the policy
	// speculates (or lazily, on the first per-request override).
	spec *speculate.Spec
}

// SetFlightRecorder routes shed and restart events into r (nil detaches).
func (g *Gateway) SetFlightRecorder(r *flightrec.Recorder) {
	g.rec = r
	g.recActor = r.Actor("ingress")
}

// New assembles a gateway in front of backend.
func New(eng *sim.Engine, p *params.Params, cfg Config, backend Backend) *Gateway {
	if cfg.InitialWorkers <= 0 {
		cfg.InitialWorkers = 1
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = p.IngressMaxWorkers
	}
	g := &Gateway{
		eng:           eng,
		p:             p,
		cfg:           cfg,
		backend:       backend,
		served:        metrics.NewMeter(),
		RPSSeries:     metrics.NewSeries("rps"),
		CPUSeries:     metrics.NewSeries("cpu"),
		WorkersSeries: metrics.NewSeries("workers"),
	}
	if cfg.Speculate.Enabled() {
		g.spec = speculate.New(eng, cfg.Speculate)
	}
	for i := 0; i < cfg.InitialWorkers; i++ {
		g.addWorker()
	}
	if cfg.AutoScale {
		eng.Spawn("ingress-master", g.masterLoop)
	}
	return g
}

// Served reports total responses delivered.
func (g *Gateway) Served() uint64 { return g.served.Total() }

// Dropped reports requests discarded due to overload.
func (g *Gateway) Dropped() uint64 { return g.dropped }

// Meter exposes the response meter for windowed RPS measurements.
func (g *Gateway) Meter() *metrics.Meter { return g.served }

// ActiveWorkers reports the current worker count.
func (g *Gateway) ActiveWorkers() int { return g.nActive }

// QueueDepth reports events queued across all workers right now — the
// admission backlog telemetry samples.
func (g *Gateway) QueueDepth() int {
	depth := 0
	for _, w := range g.workers {
		depth += w.q.Len()
	}
	return depth
}

// Cores returns every worker core ever started, in creation order; retired
// workers stay listed, since their busy time stays on the books.
func (g *Gateway) Cores() []*sim.Processor {
	out := make([]*sim.Processor, len(g.workers))
	for i, w := range g.workers {
		out[i] = w.core
	}
	return out
}

// ScaleEvents reports how many scale-up/-down transitions happened.
func (g *Gateway) ScaleEvents() int { return g.scaleEvents }

// Spec returns the speculation controller (nil when no request has ever
// speculated). Experiments read the spec.* counters off it.
func (g *Gateway) Spec() *speculate.Spec { return g.spec }

// InjectRestart pauses every worker for pause from now, reusing the worker
// restart window of §3.6 — the same stall a gateway redeploy causes.
// Injection hook for internal/chaos; overlapping injections extend, never
// shorten, the pause.
func (g *Gateway) InjectRestart(pause time.Duration) {
	until := g.eng.Now() + pause
	if until > g.pausedUntil {
		g.pausedUntil = until
	}
	g.injectedRestarts++
	if g.rec != nil {
		g.rec.Record(flightrec.KindIngressRestart, g.recActor, int64(pause), 0)
	}
}

// InjectedRestarts reports how many restarts were injected.
func (g *Gateway) InjectedRestarts() int { return g.injectedRestarts }

// addWorker spawns a new worker process on a fresh core.
func (g *Gateway) addWorker() {
	w := &worker{
		id:     len(g.workers),
		actor:  fmt.Sprintf("ingress-w%d", len(g.workers)),
		core:   sim.NewProcessor(g.eng, fmt.Sprintf("ingress-w%d", len(g.workers)), g.p.HostCoreSpeed),
		wake:   sim.NewSignal(g.eng),
		active: true,
	}
	g.workers = append(g.workers, w)
	g.nActive++
	g.eng.Spawn(fmt.Sprintf("ingress-worker-%d", w.id), func(pr *sim.Proc) { g.workerLoop(pr, w) })
}

// Submit delivers a client request to the gateway after the external
// network latency, steering it to a worker via RSS. Engine context.
func (g *Gateway) Submit(req Request) {
	g.nextID++
	req.ID = g.nextID
	t0 := g.eng.Now()
	g.eng.After(g.p.ExtNetOneWay+transport.TransitLatency(g.p, g.cfg.Kind.clientStack()), func() {
		req.Trace.Record(trace.StageNetClient, "extnet", t0, g.eng.Now())
		w := g.pick(req.Client)
		if g.cfg.Kind == KIngress {
			// Interrupt-driven input: the IRQ/softirq cost is paid on
			// arrival even if the request is later dropped — the receive
			// livelock ingredient.
			w.core.Charge(g.p.KernelTCPPerMsg / 4)
		}
		if g.cfg.QueueCap > 0 && w.q.Len() >= g.cfg.QueueCap {
			g.dropped++
			if g.rec != nil {
				g.rec.Record(flightrec.KindIngressDrop, g.recActor, int64(req.Client), 0)
			}
			return
		}
		req.Trace.BeginStage(trace.StageIngressQueue, "ingress")
		w.q.PushBack(workerEvent{req: req})
		w.wake.Pulse()
	})
}

// pick implements RSS: hash client connection onto active workers.
func (g *Gateway) pick(client int) *worker {
	idx := client % g.nActive
	n := 0
	for _, w := range g.workers {
		if !w.active {
			continue
		}
		if n == idx {
			return w
		}
		n++
	}
	return g.workers[0]
}

// workerLoop is the run-to-completion event loop of one worker process.
func (g *Gateway) workerLoop(pr *sim.Proc, w *worker) {
	p := g.p
	kind := g.cfg.Kind
	cs := kind.clientStack()
	// Deferred-conversion designs proxy upstream over TCP: F-Ingress keeps
	// F-stack upstream connections, K-Ingress kernel ones.
	us := transport.FStack
	if kind == KIngress {
		us = transport.Kernel
	}
	for w.active {
		if w.q.Len() == 0 {
			w.wake.Wait(pr)
			continue
		}
		if g.pausedUntil > pr.Now() {
			// Worker restart window during horizontal scaling (§3.6).
			pr.Sleep(g.pausedUntil - pr.Now())
		}
		ev := w.q.PopFront()
		if !ev.isResp {
			req := ev.req
			tr := req.Trace
			tr.EndStage(trace.StageIngressQueue)
			actor := w.actor
			// Client-side TCP receive + HTTP processing.
			sp := tr.Begin(trace.StageIngressRecv, actor)
			w.core.Exec(pr, transport.RecvCost(p, cs, req.Bytes)+transport.HTTPCost(p)+g.cfg.ExtraPerRequest)
			sp.End()
			// Transport conversion / upstream proxy cost, paid once per arm
			// (every clone is a separate post toward the backend).
			var conv time.Duration
			if kind == Nadino {
				// Early transport conversion: copy the payload into an
				// RDMA-registered buffer and post a two-sided send.
				conv = p.MemcpyBase + params.Bytes(p.MemcpyPerByteCached, req.Bytes) + p.VerbsPostCost
			} else {
				// Proxy the HTTP request upstream over TCP, paying half
				// the upstream connection-management overhead here.
				conv = transport.SendCost(p, us, req.Bytes) + p.ProxyUpstreamOverhead/2
			}
			if g.spec == nil && req.Clone <= 1 && req.Hedge <= 0 {
				// Unspeculated fast path, byte-identical to the
				// pre-speculation gateway.
				sp = tr.Begin(trace.StageIngressConv, actor)
				w.core.Exec(pr, conv)
				sp.End()
				// The backend wait wraps every worker-side stage, so it is
				// a detail span: in the timeline, excluded from sums.
				tr.BeginStageDetail(trace.StageIngressWait, actor)
				g.backend.Forward(req, g.deliver(w, req, tr))
				continue
			}
			g.forwardSpeculative(pr, w, req, conv)
			continue
		}
		resp := ev.resp
		ev.tr.EndStage(trace.StageIngressQueue)
		sp := ev.tr.Begin(trace.StageIngressResp, w.actor)
		if kind == Nadino {
			// Poll the RDMA completion and copy the payload back out into
			// the TCP stream.
			w.core.Exec(pr, p.VerbsPostCost/2+p.MemcpyBase+params.Bytes(p.MemcpyPerByteCached, resp.Bytes))
		} else {
			w.core.Exec(pr, transport.RecvCost(p, us, resp.Bytes)+p.ProxyUpstreamOverhead/2)
		}
		// HTTP response relay + client-side TCP send.
		w.core.Exec(pr, transport.HTTPCost(p)/2+transport.SendCost(p, cs, resp.Bytes))
		sp.End()
		g.served.Inc(1)
		if cb := ev.reply; cb != nil {
			t0 := pr.Now()
			tr := ev.tr
			g.eng.After(g.p.ExtNetOneWay+transport.TransitLatency(p, cs), func() {
				tr.Record(trace.StageNetClient, "extnet", t0, g.eng.Now())
				cb(resp)
			})
		}
	}
}

// deliver returns the backend completion callback that requeues a response
// onto a worker for the client-facing reply path. Exactly one arm of a
// request may deliver: the IngressWait/IngressQueue stages opened for the
// request are closed here, once.
func (g *Gateway) deliver(w *worker, req Request, tr *trace.Req) func(Response) {
	return func(resp Response) {
		tr.EndStage(trace.StageIngressWait)
		tr.BeginStage(trace.StageIngressQueue, "ingress")
		w2 := w
		if !w2.active {
			w2 = g.pick(req.Client)
		}
		w2.q.PushBack(workerEvent{isResp: true, resp: resp, reply: req.Reply, tr: tr})
		w2.wake.Pulse()
	}
}

// forwardSpeculative fires a request's speculation arms through the backend.
// Initial arms run synchronously on the worker's core (each clone pays its
// own conversion cost); a hedge arm fires later from the deadline timer and
// charges its conversion asynchronously. The first arm to complete wins at
// the Finish boundary and delivers; every later completion is a cancelled
// loser that records a spec.cancel instant and releases nothing here —
// whatever it held was returned by the layers it already traversed.
func (g *Gateway) forwardSpeculative(pr *sim.Proc, w *worker, req Request, conv time.Duration) {
	if g.spec == nil {
		// Per-request override on a gateway whose policy never speculates.
		g.spec = speculate.New(g.eng, g.cfg.Speculate)
	}
	tr := req.Trace
	actor := w.actor
	deliver := g.deliver(w, req, tr)
	tr.BeginStageDetail(trace.StageIngressWait, actor)
	sync := true
	g.spec.Launch(req.Chain, req.Clone, req.Hedge, func(grp *speculate.Group, arm int) bool {
		armReq := req
		armReq.Group = grp
		armReq.Arm = arm
		armSpan := tr.BeginDetail(trace.StageSpecClone, actor)
		if sync {
			spc := tr.Begin(trace.StageIngressConv, actor)
			w.core.Exec(pr, conv)
			spc.End()
		} else {
			// Hedge arm: fired in engine context by the deadline timer;
			// the conversion work lands on the worker core asynchronously.
			w.core.Charge(conv)
		}
		g.backend.Forward(armReq, func(resp Response) {
			armSpan.End()
			if !grp.Finish(armReq.Arm) {
				// A loser that made it all the way back to the boundary:
				// suppressed here, its response buffer already recycled by
				// the backend's completion path.
				tr.Event(trace.StageSpecCancel, actor)
				return
			}
			deliver(resp)
		})
		return true
	})
	sync = false
}

// masterLoop is the autoscaler: hysteresis on average useful-work CPU
// utilization across active workers (scale up at 60%, down at 30%), with a
// brief service interruption on each scale event.
func (g *Gateway) masterLoop(pr *sim.Proc) {
	p := g.p
	for {
		pr.Sleep(p.IngressScaleCheckEvery)
		var sum float64
		for _, w := range g.workers {
			if w.active {
				sum += w.util.Sample(pr.Now(), w.core.BusyTime())
			}
		}
		avg := sum / float64(g.nActive)
		switch {
		case avg >= p.IngressScaleUpUtil && g.nActive < g.cfg.MaxWorkers:
			g.addWorker()
			g.scaleEvents++
			g.pausedUntil = pr.Now() + p.IngressRestartPause
		case avg <= p.IngressScaleDownUtil && g.nActive > 1:
			g.removeWorker()
			g.scaleEvents++
			g.pausedUntil = pr.Now() + p.IngressRestartPause
		}
	}
}

// removeWorker drains and retires the most recently added active worker.
func (g *Gateway) removeWorker() {
	for i := len(g.workers) - 1; i >= 0; i-- {
		w := g.workers[i]
		if !w.active {
			continue
		}
		w.active = false
		g.nActive--
		w.wake.Pulse() // let its loop observe inactivity and exit
		if w.q.Len() > 0 && g.nActive > 0 {
			dst := g.pick(0)
			for w.q.Len() > 0 {
				dst.q.PushBack(w.q.PopFront())
			}
			dst.wake.Pulse()
		}
		return
	}
}

// StartRecorder samples RPS, CPU-in-use and worker count every interval.
func (g *Gateway) StartRecorder(interval time.Duration) {
	g.served.MarkWindow(g.eng.Now())
	g.eng.Ticker(interval, func(now time.Duration) {
		g.RPSSeries.Add(now, g.served.WindowRate(now))
		g.served.MarkWindow(now)
		g.CPUSeries.Add(now, g.cpuInUse(now))
		g.WorkersSeries.Add(now, float64(g.nActive))
	})
}

// cpuInUse reports cores' worth of CPU consumed. Busy-polling designs
// (NADINO, F-Ingress) occupy their pinned cores fully; the kernel design is
// measured by actual busy time.
func (g *Gateway) cpuInUse(now time.Duration) float64 {
	if g.cfg.Kind != KIngress {
		return float64(g.nActive)
	}
	var sum float64
	for _, w := range g.workers {
		sum += w.util.Sample(now, w.core.BusyTime())
	}
	return sum
}
