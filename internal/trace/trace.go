// Package trace is a virtual-time span tracer for the NADINO simulation.
//
// A Tracer collects per-request traces: each request owns a root span plus
// child spans for every stage it passes through (ingress parsing, transport
// traversal, DNE scheduling, Comch/SK_MSG handoff, RDMA post->CQE, fabric
// serialization, function execution). Spans carry virtual timestamps taken
// from the simulation engine's clock, so a trace is an exact account of
// where a request's latency went.
//
// The tracer is built for zero cost when disabled: every method on *Req is
// nil-safe, so instrumentation sites call through a possibly-nil pointer and
// pay only a nil check when tracing is off. StartRequest returns nil once
// the request limit is reached, which doubles as head sampling — the same
// nil-safety makes the untraced tail free.
//
// Stage spans come in two flavors. Tiling stages partition the request's
// critical path: in steady state their per-request sum equals the
// end-to-end latency (queue waits fold into the adjacent stage because all
// handoffs between loops in the engine happen at the same virtual instant).
// Detail spans (Span.Detail) overlap tiling stages — nested wire segments,
// acknowledgment round-trips — and are excluded from reconciliation sums.
//
// Cross-component stages use BeginStage/EndStage, which keep a per-stage
// LIFO stack on the request: the producer side opens the span and the
// consumer side closes it without either holding a reference. Under
// fan-out, concurrent same-stage spans may have their boundaries swapped by
// the LIFO pop; the total attributed time is conserved. A span left open
// (e.g. a send abandoned after a transport error) is excluded from reports
// and exports.
//
// The simulation engine is single-threaded, so the tracer needs no locking.
package trace

import "time"

// Stage names shared by the instrumentation sites. Keeping them here (the
// lowest layer next to mempool) avoids import cycles between the layers
// that open and close the same stage.
const (
	StageNetClient    = "net.client"      // client <-> gateway external network
	StageIngressQueue = "ingress.queue"   // gateway worker queue wait
	StageIngressRecv  = "ingress.recv"    // gateway stack RX + HTTP parse
	StageIngressConv  = "ingress.convert" // gateway protocol conversion / verbs post
	StageIngressWait  = "ingress.backend" // detail: gateway waiting on the backend fabric
	StageIngressResp  = "ingress.respond" // gateway response build + stack TX
	StagePortSend     = "port.send"       // function port TX (descriptor hand-off)
	StagePortRecv     = "port.recv"       // function port RX wakeup
	StageComchH2D     = "comch.h2d"       // Comch host -> DPU delivery + queue
	StageComchD2H     = "comch.d2h"       // Comch DPU -> host delivery + queue
	StageSKMsg        = "ipc.skmsg"       // SK_MSG delivery + queue
	StageDNEIngest    = "dne.ingest"      // DNE ingest processing
	StageDNESched     = "dne.sched"       // DNE tenant scheduler queue wait
	StageDNETx        = "dne.tx"          // DNE TX path (header build, DMA, post)
	StageDNERx        = "dne.rx"          // DNE RX path (CQE handling, DMA, push)
	StageRDMA         = "rdma.transfer"   // RDMA post -> receive-side CQE
	StageRDMACQ       = "rdma.cq"         // CQE queued until consumer handles it
	StageRDMAAck      = "rdma.ack"        // detail: send-completion round trip
	StageRNR          = "rdma.rnr"        // instant: receiver-not-ready event
	StageFabric       = "fabric.wire"     // detail: wire serialization + propagation
	StageFnQueue      = "fn.queue"        // function inbox queue wait
	StageFnColdstart  = "fn.coldstart"    // function cold-start stall
	StageFnExec       = "fn.exec"         // application compute
	StageFnDeliver    = "fn.deliver"      // local delivery wakeup (SK_MSG/TCP RX)
	StageSidecar      = "fn.sidecar"      // cross-tenant sidecar copy
	StageTransit      = "net.transit"     // TCP baseline wire transit
	StageGwQueue      = "gw.queue"        // gateway pending queue (submit -> write post)
	StageGwHop        = "gw.hop"          // detail: one inter-gateway hop (post -> landed ingest)
	StageSpecClone    = "spec.clone"      // detail: a speculative clone arm's in-flight window
	StageSpecCancel   = "spec.cancel"     // instant: a losing clone killed (at whatever stage it died)
)

// DefaultRequestLimit bounds how many requests a Tracer records; later
// StartRequest calls return nil (counted in Dropped) so long runs trace a
// head sample instead of growing without bound.
const DefaultRequestLimit = 2000

// openEnd marks a span whose End has not been recorded yet.
const openEnd = time.Duration(-1)

// Span is one timed segment of a request. End < 0 means still open.
type Span struct {
	Trace  int    // index of the owning request within its Tracer
	ID     uint64 // tracer-unique span id
	Parent uint64 // parent span id; 0 for the root span
	Stage  string
	Actor  string // component/core label, becomes the Chrome trace thread
	Start  time.Duration
	End    time.Duration
	Detail bool // overlaps tiling stages; excluded from reconciliation sums
}

// Duration reports the span length (0 while open).
func (s Span) Duration() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Open reports whether the span has not ended.
func (s Span) Open() bool { return s.End < 0 }

// Tracer collects request traces against a virtual clock.
type Tracer struct {
	clock   func() time.Duration
	limit   int
	reqs    []*Req
	nextID  uint64
	dropped uint64
}

// New returns a tracer reading time from clock (usually Engine.Now). A nil
// clock stamps everything at 0 until SetClock is called.
func New(clock func() time.Duration) *Tracer {
	return &Tracer{clock: clock, limit: DefaultRequestLimit}
}

// SetClock (re)binds the virtual clock. Nil-safe so a possibly-nil tracer
// can be attached to an engine unconditionally.
func (t *Tracer) SetClock(clock func() time.Duration) {
	if t == nil {
		return
	}
	t.clock = clock
}

// SetLimit changes the request cap; n <= 0 removes it.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.limit = n
}

// Dropped reports how many StartRequest calls were refused by the limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Requests returns the recorded requests.
func (t *Tracer) Requests() []*Req {
	if t == nil {
		return nil
	}
	return t.reqs
}

func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// StartRequest opens a new trace with an open root span. Returns nil (a
// valid no-op request) on a nil tracer or past the request limit.
func (t *Tracer) StartRequest(name string) *Req {
	if t == nil {
		return nil
	}
	if t.limit > 0 && len(t.reqs) >= t.limit {
		t.dropped++
		return nil
	}
	r := &Req{t: t, Name: name, id: len(t.reqs), open: make(map[string][]int)}
	t.nextID++
	sp := r.grow()
	sp.Trace, sp.ID, sp.Stage, sp.Actor = r.id, t.nextID, "request", "request"
	sp.Start, sp.End = t.now(), openEnd
	t.reqs = append(t.reqs, r)
	return r
}

// Req is one request's trace. All methods are nil-safe no-ops so untraced
// requests cost a nil check at each instrumentation site.
type Req struct {
	t     *Tracer
	Name  string
	id    int
	spans []Span
	// open holds per-stage LIFO stacks of open span indices for the
	// BeginStage/EndStage producer-consumer protocol.
	open map[string][]int
}

// SpanRef is a handle to an open span returned by Begin/BeginDetail.
// The zero SpanRef (from a nil request) is a valid no-op.
type SpanRef struct {
	r   *Req
	idx int
}

// End closes the span at the current virtual time. Ending twice is a no-op.
func (s SpanRef) End() {
	if s.r == nil {
		return
	}
	sp := &s.r.spans[s.idx]
	if sp.End < 0 {
		sp.End = s.r.t.now()
	}
}

func (r *Req) add(stage, actor string, start, end time.Duration, detail bool) int {
	r.t.nextID++
	sp := r.grow()
	sp.Trace, sp.ID, sp.Parent = r.id, r.t.nextID, r.spans[0].ID
	sp.Stage, sp.Actor = stage, actor
	sp.Start, sp.End, sp.Detail = start, end, detail
	return len(r.spans) - 1
}

// grow appends a zero span and returns it to be filled in place: building
// the span inside append would copy an 80-byte temporary into the slice.
func (r *Req) grow() *Span {
	r.spans = append(r.spans, Span{})
	return &r.spans[len(r.spans)-1]
}

// Begin opens a span now and returns a handle to close it.
func (r *Req) Begin(stage, actor string) SpanRef {
	if r == nil {
		return SpanRef{}
	}
	return SpanRef{r, r.add(stage, actor, r.t.now(), openEnd, false)}
}

// BeginDetail is Begin for a detail span (excluded from tiling sums).
func (r *Req) BeginDetail(stage, actor string) SpanRef {
	if r == nil {
		return SpanRef{}
	}
	return SpanRef{r, r.add(stage, actor, r.t.now(), openEnd, true)}
}

// BeginStage opens a span now and pushes it on the stage's open stack, for
// the producer side of a cross-component handoff.
func (r *Req) BeginStage(stage, actor string) {
	if r == nil {
		return
	}
	r.open[stage] = append(r.open[stage], r.add(stage, actor, r.t.now(), openEnd, false))
}

// BeginStageDetail is BeginStage for a detail span.
func (r *Req) BeginStageDetail(stage, actor string) {
	if r == nil {
		return
	}
	r.open[stage] = append(r.open[stage], r.add(stage, actor, r.t.now(), openEnd, true))
}

// EndStage closes the most recently opened span of the stage (consumer
// side of a handoff). With no open span of that stage it is a no-op.
func (r *Req) EndStage(stage string) {
	if r == nil {
		return
	}
	st := r.open[stage]
	if len(st) == 0 {
		return
	}
	idx := st[len(st)-1]
	r.open[stage] = st[:len(st)-1]
	if r.spans[idx].End < 0 {
		r.spans[idx].End = r.t.now()
	}
}

// Record adds a closed span with known bounds. Inverted bounds are dropped.
func (r *Req) Record(stage, actor string, start, end time.Duration) {
	if r == nil || end < start {
		return
	}
	r.add(stage, actor, start, end, false)
}

// RecordDetail is Record for a detail span.
func (r *Req) RecordDetail(stage, actor string, start, end time.Duration) {
	if r == nil || end < start {
		return
	}
	r.add(stage, actor, start, end, true)
}

// Event records a zero-length detail instant (e.g. an RNR stall).
func (r *Req) Event(stage, actor string) {
	if r == nil {
		return
	}
	now := r.t.now()
	r.add(stage, actor, now, now, true)
}

// Finish closes the root span; the request's end-to-end latency is the root
// span's duration. Finishing twice is a no-op.
func (r *Req) Finish() {
	if r == nil {
		return
	}
	if r.spans[0].End < 0 {
		r.spans[0].End = r.t.now()
	}
}

// Finished reports whether the root span is closed.
func (r *Req) Finished() bool { return r != nil && r.spans[0].End >= 0 }

// Root returns the root span.
func (r *Req) Root() Span { return r.spans[0] }

// Spans returns all spans including the root.
func (r *Req) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}
