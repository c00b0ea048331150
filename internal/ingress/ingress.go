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
	// inside the backend; the gateway stamps them on each arm's record.
	Group *speculate.Group
	Arm   int
	// Ctx is the submitter's own handle on the request, opaque to the
	// gateway: its backend and its reply hook read it back off the
	// exchange.
	Ctx any
}

// Response is the gateway's answer to a Request.
type Response struct {
	ID    uint64
	Bytes int
	Stamp time.Duration // original request stamp, for latency accounting
}

// Backend is whatever serves requests behind the gateway — the full
// simulated cluster in the end-to-end experiments, or an echo worker node
// in the microbenchmarks. Forward takes the exchange of one request, or of
// one speculation arm of it; the backend answers it with Exchange.Done, in
// engine context, when the response arrives back at the ingress node.
type Backend interface {
	Forward(x *Exchange)
}

// Exchange is one client request's record at the ingress: Submit copies
// the request into it, and the record alone carries the request over the
// client's network leg, through a worker's queue and to the backend, and
// the response back through a worker and over the client's leg to Reply.
// A speculated request sends one arm record per arm to the backend
// instead; the arm that wins at Group.Finish answers the exchange.
type Exchange struct {
	Request
	w    *worker // the worker that took the request; its answer queues there
	resp Response
	// answered marks an exchange whose response is on its way back: a
	// second answer (the backend saw the request twice) travels on its own
	// copy.
	answered bool
	t0       time.Duration // when the network leg in flight started
	// of is the exchange an arm record belongs to (nil on the client's
	// own), and armSpan the arm's clone span.
	of      *Exchange
	armSpan trace.SpanRef
}

// Done answers the exchange with the backend's response. An arm resolves
// at the Finish boundary: the winner answers its request's exchange, and a
// loser that made it all the way back is suppressed here — its response
// buffer already recycled by the backend's completion path.
func (x *Exchange) Done(resp Response) {
	if a := x; a.of != nil {
		a.armSpan.End()
		if !a.Group.Finish(a.Arm) {
			a.Trace.Event(trace.StageSpecCancel, a.w.actor)
			return
		}
		x = a.of
	}
	x.w.g.deliver(x, resp)
}

// arm returns the record of one speculation arm of x: arm number arm of
// group grp, with its clone span.
func (x *Exchange) arm(grp *speculate.Group, arm int, span trace.SpanRef) *Exchange {
	a := &Exchange{Request: x.Request, w: x.w, of: x, armSpan: span}
	a.Group, a.Arm = grp, arm
	return a
}

// leg is a network leg of fixed latency: every exchange sent on it arrives
// that latency later, so exchanges arrive in the order they left, and one
// FIFO plus one event callback bound at construction carry them (as
// ipc.Chan carries descriptors).
type leg struct {
	eng      *sim.Engine
	latency  time.Duration
	inflight ring.Deque[*Exchange]
	arrive   func(*Exchange)
	landFn   func()
}

// init binds the leg's latency and the far end that takes each arrival.
func (l *leg) init(eng *sim.Engine, latency time.Duration, arrive func(*Exchange)) {
	l.eng, l.latency, l.arrive = eng, latency, arrive
	l.landFn = l.land
}

// send puts x on the leg; it arrives after the leg's latency.
func (l *leg) send(x *Exchange) {
	x.t0 = l.eng.Now()
	l.inflight.PushBack(x)
	l.eng.After(l.latency, l.landFn)
}

// land hands the oldest exchange in flight to the far end.
func (l *leg) land() { l.arrive(l.inflight.PopFront()) }

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

// worker is one gateway worker pinned to a core: a run-to-completion loop
// whose block points — its core, its wake signal, a restart pause — are
// one event each. Its queue holds exchanges: a request to convert and
// forward, or an answered one whose response goes back to the client.
type worker struct {
	g      *Gateway
	id     int
	actor  string // span label, precomputed (was a per-request Sprintf)
	core   *sim.Processor
	q      ring.Deque[*Exchange]
	wake   *sim.Signal
	active bool
	util   metrics.UtilSampler

	// The exchange in service and its open span.
	x  *Exchange
	sp trace.SpanRef
	// A speculated request's launch: its group, the next arm to fire and
	// the arm's clone span.
	grp     *speculate.Group
	arm     int
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

	// The client's two network legs: requests to the gateway, responses
	// back. onReply, when set, sees every response reaching its client.
	in, out leg
	onReply func(*Exchange, Response)

	masterFn func() // master, bound once
}

// SetFlightRecorder routes shed and restart events into r (nil detaches).
func (g *Gateway) SetFlightRecorder(r *flightrec.Recorder) {
	g.rec = r
	g.recActor = r.Actor("ingress")
}

// SetReplyHook binds fn, run in engine context with every response that
// reaches its client, just before the request's Reply.
func (g *Gateway) SetReplyHook(fn func(*Exchange, Response)) { g.onReply = fn }

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
	client := p.ExtNetOneWay + transport.TransitLatency(p, cfg.Kind.clientStack())
	g.in.init(eng, client, g.arrived)
	g.out.init(eng, client, g.replied)
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
	x := &Exchange{Request: req}
	x.ID = g.nextID
	g.in.send(x)
}

// arrived steers a request off the client's leg to a worker's queue.
func (g *Gateway) arrived(x *Exchange) {
	x.Trace.Record(trace.StageNetClient, "extnet", x.t0, g.eng.Now())
	w := g.pick(x.Client)
	if g.cfg.Kind == KIngress {
		// Interrupt-driven input: the IRQ/softirq cost is paid on arrival
		// even if the request is later dropped — the receive livelock
		// ingredient.
		w.core.Charge(g.p.KernelTCPPerMsg / 4)
	}
	if g.cfg.QueueCap > 0 && w.q.Len() >= g.cfg.QueueCap {
		g.dropped++
		if g.rec != nil {
			g.rec.Record(flightrec.KindIngressDrop, g.recActor, int64(x.Client), 0)
		}
		return
	}
	x.Trace.BeginStage(trace.StageIngressQueue, "ingress")
	w.q.PushBack(x)
	w.wake.Pulse()
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

// serve takes the next exchange: a client request to convert and forward,
// or an answered one whose response goes back to its client.
func (w *worker) serve() {
	g, p := w.g, w.g.p
	x := w.q.PopFront()
	w.x = x
	x.Trace.EndStage(trace.StageIngressQueue)
	if x.answered {
		w.sp = x.Trace.Begin(trace.StageIngressResp, w.actor)
		if g.cfg.Kind == Nadino {
			// Poll the RDMA completion and copy the payload back out into
			// the TCP stream.
			w.core.Run(p.VerbsPostCost/2+p.MemcpyBase+params.Bytes(p.MemcpyPerByteCached, x.resp.Bytes), w.respPolledFn)
		} else {
			w.core.Run(transport.RecvCost(p, g.cfg.Kind.upstreamStack(), x.resp.Bytes)+p.ProxyUpstreamOverhead/2, w.respPolledFn)
		}
		return
	}
	x.w = w
	// Client-side TCP receive + HTTP processing.
	w.sp = x.Trace.Begin(trace.StageIngressRecv, w.actor)
	w.core.Run(transport.RecvCost(p, g.cfg.Kind.clientStack(), x.Bytes)+transport.HTTPCost(p)+g.cfg.ExtraPerRequest, w.recvdFn)
}

// conv is the transport conversion or upstream proxy cost of forwarding a
// request of bytes, paid once per arm (every clone is a separate post
// toward the backend).
func (g *Gateway) conv(bytes int) time.Duration {
	p := g.p
	if g.cfg.Kind == Nadino {
		// Early transport conversion: copy the payload into an
		// RDMA-registered buffer and post a two-sided send.
		return p.MemcpyBase + params.Bytes(p.MemcpyPerByteCached, bytes) + p.VerbsPostCost
	}
	// Proxy the HTTP request upstream over TCP, paying half the upstream
	// connection-management overhead here.
	return transport.SendCost(p, g.cfg.Kind.upstreamStack(), bytes) + p.ProxyUpstreamOverhead/2
}

// recvd converts a received request toward the backend: one conversion,
// or one per speculation arm.
func (w *worker) recvd() {
	g, x := w.g, w.x
	w.sp.End()
	if g.spec == nil && x.Clone <= 1 && x.Hedge <= 0 {
		// Unspeculated fast path, byte-identical to the pre-speculation
		// gateway.
		w.sp = x.Trace.Begin(trace.StageIngressConv, w.actor)
		w.core.Run(g.conv(x.Bytes), w.convFn)
		return
	}
	w.launch()
}

// converted forwards an unspeculated request once converted.
func (w *worker) converted() {
	x := w.x
	w.sp.End()
	// The backend wait wraps every worker-side stage, so it is a detail
	// span: in the timeline, excluded from sums.
	x.Trace.BeginStageDetail(trace.StageIngressWait, w.actor)
	w.g.backend.Forward(x)
	w.done()
}

// respPolled relays a response to its client: HTTP response + client-side
// TCP send.
func (w *worker) respPolled() {
	cs := w.g.cfg.Kind.clientStack()
	w.core.Run(transport.HTTPCost(w.g.p)/2+transport.SendCost(w.g.p, cs, w.x.resp.Bytes), w.respSentFn)
}

// respSent puts the response on the client's leg, if anyone awaits it.
func (w *worker) respSent() {
	g, x := w.g, w.x
	w.sp.End()
	g.served.Inc(1)
	if x.Reply != nil || g.onReply != nil {
		g.out.send(x)
	}
	w.done()
}

// replied hands a response off the client's leg to the reply hook and the
// client.
func (g *Gateway) replied(x *Exchange) {
	x.Trace.Record(trace.StageNetClient, "extnet", x.t0, g.eng.Now())
	if g.onReply != nil {
		g.onReply(x, x.resp)
	}
	if x.Reply != nil {
		x.Reply(x.resp)
	}
}

// done finishes the exchange in service and goes back to the loop top.
func (w *worker) done() {
	w.x = nil
	w.loop()
}

// deliver requeues an answered exchange onto the worker that took it (or,
// retired since, the one RSS steers its client to now) for the
// client-facing reply path. Exactly one arm of a request answers it: the
// IngressWait/IngressQueue stages opened for the request are closed here,
// once.
func (g *Gateway) deliver(x *Exchange, resp Response) {
	if x.answered {
		// A second answer: the backend saw the request twice.
		c := *x
		x = &c
	}
	x.answered, x.resp = true, resp
	x.Trace.EndStage(trace.StageIngressWait)
	x.Trace.BeginStage(trace.StageIngressQueue, "ingress")
	w := x.w
	if !w.active {
		w = g.pick(x.Client)
	}
	w.q.PushBack(x)
	w.wake.Pulse()
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
	g, x := w.g, w.x
	if g.spec == nil {
		// Per-request override on a gateway whose policy never speculates.
		g.spec = speculate.New(g.eng, g.cfg.Speculate)
	}
	x.Trace.BeginStageDetail(trace.StageIngressWait, w.actor)
	w.grp, w.arm = g.spec.Start(x.Chain, x.Clone, x.Hedge), 0
	w.nextArm()
}

// nextArm converts the next initial arm, or arms the hedge after the last.
func (w *worker) nextArm() {
	if w.arm == w.grp.Clones() {
		w.grp.ArmHedge(w.x.fireHedge)
		w.grp = nil
		w.done()
		return
	}
	tr := w.x.Trace
	w.armSpan = tr.BeginDetail(trace.StageSpecClone, w.actor)
	w.sp = tr.Begin(trace.StageIngressConv, w.actor)
	w.core.Run(w.g.conv(w.x.Bytes), w.armConvFn)
}

// armConverted sends the converted arm.
func (w *worker) armConverted() {
	w.sp.End()
	w.g.backend.Forward(w.x.arm(w.grp, w.arm, w.armSpan))
	w.grp.Fired(w.arm, true)
	w.arm++
	w.nextArm()
}

// fireHedge is the hedge arm's fire: it runs in engine context from the
// deadline timer, so the conversion lands on the worker core
// asynchronously.
func (x *Exchange) fireHedge(grp *speculate.Group, arm int) bool {
	w := x.w
	span := x.Trace.BeginDetail(trace.StageSpecClone, w.actor)
	w.core.Charge(w.g.conv(x.Bytes))
	w.g.backend.Forward(x.arm(grp, arm, span))
	return true
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
