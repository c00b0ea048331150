// Package ingress implements NADINO's cluster-wide ingress gateway (§3.6)
// and the two NGINX-based baselines of §4.1.3: the gateway terminates
// external HTTP/TCP connections and either converts payloads to RDMA at the
// cluster edge (NADINO) or proxies HTTP over TCP to the worker node, which
// must terminate TCP again ("deferred" conversion, Fig. 4).
//
// The gateway follows the paper's master-worker model: run-to-completion
// workers pinned to cores, RSS distribution of client connections, and a
// hysteresis autoscaler driven by refined (useful-work) CPU accounting.
// Workers and master are engine-callback state machines: each block point
// of their loops is one event (see internal/sim).
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

// upstreamStack is the TCP stack deferred-conversion designs proxy upstream
// with: F-Ingress keeps F-stack upstream connections, K-Ingress kernel ones.
func (k Kind) upstreamStack() transport.Stack {
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

// worker is one gateway worker pinned to a core: a run-to-completion loop
// whose block points — its core, its wake signal, a restart pause — are
// one event each.
type worker struct {
	g      *Gateway
	id     int
	actor  string // span label, precomputed (was a per-request Sprintf)
	core   *sim.Processor
	q      ring.Deque[workerEvent]
	wake   *sim.Signal
	active bool
	util   metrics.UtilSampler

	// The event in service and its open span.
	ev workerEvent
	sp trace.SpanRef
	// A speculated request's launch: its group, the next arm to fire, the
	// conversion each arm pays, the reply path and the arm's clone span.
	grp     *speculate.Group
	arm     int
	conv    time.Duration
	deliver func(Response)
	armSpan trace.SpanRef

	loopFn, resumedFn, recvdFn, convFn, armConvFn, respPolledFn, respSentFn func()
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

	masterFn func() // master, bound once
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
		// The master starts from one same-instant event and sleeps its
		// first sampling period from there.
		g.masterFn = g.master
		eng.Immediate(func() { eng.After(p.IngressScaleCheckEvery, g.masterFn) })
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

// addWorker starts a new worker on a fresh core, from one same-instant
// event.
func (g *Gateway) addWorker() {
	w := &worker{
		g:      g,
		id:     len(g.workers),
		actor:  fmt.Sprintf("ingress-w%d", len(g.workers)),
		core:   sim.NewProcessor(g.eng, fmt.Sprintf("ingress-w%d", len(g.workers)), g.p.HostCoreSpeed),
		wake:   sim.NewSignal(g.eng),
		active: true,
	}
	w.loopFn, w.resumedFn, w.recvdFn, w.convFn = w.loop, w.resumed, w.recvd, w.converted
	w.armConvFn, w.respPolledFn, w.respSentFn = w.armConverted, w.respPolled, w.respSent
	g.workers = append(g.workers, w)
	g.nActive++
	g.eng.Immediate(w.loopFn)
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

// loop is the top of a worker's run-to-completion loop: a retired worker
// stops, an idle one parks on its wake signal, and during a restart pause
// the worker sleeps it out first.
func (w *worker) loop() {
	g := w.g
	switch {
	case !w.active:
	case w.q.Len() == 0:
		w.wake.Notify(w.loopFn)
	case g.pausedUntil > g.eng.Now():
		// Worker restart window during horizontal scaling (§3.6).
		g.eng.After(g.pausedUntil-g.eng.Now(), w.resumedFn)
	default:
		w.serve()
	}
}

// resumed ends a restart pause. The master may have retired the worker,
// moving its queue to another, while it slept: then it goes back to the
// loop top. Otherwise it serves at once, as the pause it slept through
// ends now.
func (w *worker) resumed() {
	if !w.active || w.q.Len() == 0 {
		w.loop()
		return
	}
	w.serve()
}

// serve takes the next event: a client request to convert and forward, or
// a backend response to relay to its client.
func (w *worker) serve() {
	g, p := w.g, w.g.p
	w.ev = w.q.PopFront()
	if w.ev.isResp {
		w.ev.tr.EndStage(trace.StageIngressQueue)
		w.sp = w.ev.tr.Begin(trace.StageIngressResp, w.actor)
		if g.cfg.Kind == Nadino {
			// Poll the RDMA completion and copy the payload back out into
			// the TCP stream.
			w.core.Run(p.VerbsPostCost/2+p.MemcpyBase+params.Bytes(p.MemcpyPerByteCached, w.ev.resp.Bytes), w.respPolledFn)
		} else {
			w.core.Run(transport.RecvCost(p, g.cfg.Kind.upstreamStack(), w.ev.resp.Bytes)+p.ProxyUpstreamOverhead/2, w.respPolledFn)
		}
		return
	}
	req := w.ev.req
	req.Trace.EndStage(trace.StageIngressQueue)
	// Client-side TCP receive + HTTP processing.
	w.sp = req.Trace.Begin(trace.StageIngressRecv, w.actor)
	w.core.Run(transport.RecvCost(p, g.cfg.Kind.clientStack(), req.Bytes)+transport.HTTPCost(p)+g.cfg.ExtraPerRequest, w.recvdFn)
}

// recvd converts a received request toward the backend: one conversion,
// or one per speculation arm.
func (w *worker) recvd() {
	g, p, req := w.g, w.g.p, w.ev.req
	w.sp.End()
	// Transport conversion / upstream proxy cost, paid once per arm (every
	// clone is a separate post toward the backend).
	if g.cfg.Kind == Nadino {
		// Early transport conversion: copy the payload into an
		// RDMA-registered buffer and post a two-sided send.
		w.conv = p.MemcpyBase + params.Bytes(p.MemcpyPerByteCached, req.Bytes) + p.VerbsPostCost
	} else {
		// Proxy the HTTP request upstream over TCP, paying half the
		// upstream connection-management overhead here.
		w.conv = transport.SendCost(p, g.cfg.Kind.upstreamStack(), req.Bytes) + p.ProxyUpstreamOverhead/2
	}
	if g.spec == nil && req.Clone <= 1 && req.Hedge <= 0 {
		// Unspeculated fast path, byte-identical to the pre-speculation
		// gateway.
		w.sp = req.Trace.Begin(trace.StageIngressConv, w.actor)
		w.core.Run(w.conv, w.convFn)
		return
	}
	w.launch()
}

// converted forwards an unspeculated request once converted.
func (w *worker) converted() {
	g, req := w.g, w.ev.req
	tr := req.Trace
	w.sp.End()
	// The backend wait wraps every worker-side stage, so it is a detail
	// span: in the timeline, excluded from sums.
	tr.BeginStageDetail(trace.StageIngressWait, w.actor)
	g.backend.Forward(req, g.deliver(w, req, tr))
	w.done()
}

// respPolled relays a response to its client: HTTP response + client-side
// TCP send.
func (w *worker) respPolled() {
	cs := w.g.cfg.Kind.clientStack()
	w.core.Run(transport.HTTPCost(w.g.p)/2+transport.SendCost(w.g.p, cs, w.ev.resp.Bytes), w.respSentFn)
}

func (w *worker) respSent() {
	g := w.g
	w.sp.End()
	g.served.Inc(1)
	if cb := w.ev.reply; cb != nil {
		t0 := g.eng.Now()
		tr, resp := w.ev.tr, w.ev.resp
		g.eng.After(g.p.ExtNetOneWay+transport.TransitLatency(g.p, g.cfg.Kind.clientStack()), func() {
			tr.Record(trace.StageNetClient, "extnet", t0, g.eng.Now())
			cb(resp)
		})
	}
	w.done()
}

// done finishes the event in service and goes back to the loop top.
func (w *worker) done() {
	w.ev = workerEvent{}
	w.loop()
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

// launch fires a request's speculation arms through the backend, with
// the stepwise speculate.Start: each initial arm pays its own conversion
// on the worker's core, one Run per arm, and the hedge timer is armed once
// the last has gone out. A hedge arm fires later from the deadline timer
// and charges its conversion asynchronously. The first arm to complete
// wins at the Finish boundary and delivers; every later completion is a
// cancelled loser that records a spec.cancel instant and releases nothing
// here — whatever it held was returned by the layers it already traversed.
func (w *worker) launch() {
	g, req := w.g, w.ev.req
	if g.spec == nil {
		// Per-request override on a gateway whose policy never speculates.
		g.spec = speculate.New(g.eng, g.cfg.Speculate)
	}
	tr := req.Trace
	w.deliver = g.deliver(w, req, tr)
	tr.BeginStageDetail(trace.StageIngressWait, w.actor)
	w.grp, w.arm = g.spec.Start(req.Chain, req.Clone, req.Hedge), 0
	w.nextArm()
}

// nextArm converts the next initial arm, or arms the hedge after the last.
func (w *worker) nextArm() {
	if w.arm == w.grp.Clones() {
		w.grp.ArmHedge(w.hedgeFire(w.ev.req, w.conv, w.deliver))
		w.grp, w.deliver = nil, nil
		w.done()
		return
	}
	tr := w.ev.req.Trace
	w.armSpan = tr.BeginDetail(trace.StageSpecClone, w.actor)
	w.sp = tr.Begin(trace.StageIngressConv, w.actor)
	w.core.Run(w.conv, w.armConvFn)
}

// armConverted sends the converted arm.
func (w *worker) armConverted() {
	w.sp.End()
	w.forwardArm(w.ev.req, w.grp, w.arm, w.armSpan, w.deliver)
	w.grp.Fired(w.arm, true)
	w.arm++
	w.nextArm()
}

// hedgeFire is the hedge arm's fire: it runs in engine context from the
// deadline timer, so the conversion lands on the worker core
// asynchronously.
func (w *worker) hedgeFire(req Request, conv time.Duration, deliver func(Response)) func(*speculate.Group, int) bool {
	return func(grp *speculate.Group, arm int) bool {
		armSpan := req.Trace.BeginDetail(trace.StageSpecClone, w.actor)
		w.core.Charge(conv)
		w.forwardArm(req, grp, arm, armSpan, deliver)
		return true
	}
}

// forwardArm sends one arm of a speculated request to the backend. Its
// completion resolves at the Finish boundary: the winner delivers, a loser
// that made it back is suppressed.
func (w *worker) forwardArm(req Request, grp *speculate.Group, arm int, armSpan trace.SpanRef, deliver func(Response)) {
	req.Group, req.Arm = grp, arm
	tr := req.Trace
	w.g.backend.Forward(req, func(resp Response) {
		armSpan.End()
		if !grp.Finish(arm) {
			// A loser that made it all the way back to the boundary:
			// suppressed here, its response buffer already recycled by the
			// backend's completion path.
			tr.Event(trace.StageSpecCancel, w.actor)
			return
		}
		deliver(resp)
	})
}

// master is the autoscaler: every sampling period, hysteresis on average
// useful-work CPU utilization across active workers (scale up at 60%, down
// at 30%), with a brief service interruption on each scale event.
func (g *Gateway) master() {
	p := g.p
	now := g.eng.Now()
	var sum float64
	for _, w := range g.workers {
		if w.active {
			sum += w.util.Sample(now, w.core.BusyTime())
		}
	}
	avg := sum / float64(g.nActive)
	switch {
	case avg >= p.IngressScaleUpUtil && g.nActive < g.cfg.MaxWorkers:
		g.addWorker()
		g.scaleEvents++
		g.pausedUntil = now + p.IngressRestartPause
	case avg <= p.IngressScaleDownUtil && g.nActive > 1:
		g.removeWorker()
		g.scaleEvents++
		g.pausedUntil = now + p.IngressRestartPause
	}
	g.eng.After(p.IngressScaleCheckEvery, g.masterFn)
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
		w.wake.Pulse() // let its loop observe inactivity and stop
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
