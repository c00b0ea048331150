package dne

import (
	"fmt"
	"time"

	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/trace"
)

// FnPort is a function's descriptor channel to the node's network engine:
// a DOCA Comch pair when the engine is on the DPU, an SK_MSG socket pair
// when it is the CPU-hosted CNE. Either way it is two ipc.Chan, and only
// the costs depend on which. It is the only way a function touches the
// RDMA data plane — the isolation boundary of §3.3.
type FnPort struct {
	fn     string
	tenant string
	engine *Engine

	toEngine, toFn *ipc.Chan
	// sendCost is what a side pays per descriptor it ships (the
	// function's core to send, the engine core to push) and wakeCost what
	// the function's core pays per descriptor it receives; both are fixed
	// when the function attaches.
	sendCost, wakeCost time.Duration

	// Send fast-path caches: the resolved tenant state (lazily bound, since
	// tenants may register after AttachFunction), the function's owner
	// string, and a single-entry destination-ID memo — echo-style traffic
	// sends to one destination, so the memo turns the per-request fn-ID
	// lookup into two comparisons. memoDstID is zero until the first Send.
	ts        *tenantState
	fnOwner   mempool.Owner
	memoDst   string
	memoDstID int32
}

// Fn reports the attached function's ID.
func (fp *FnPort) Fn() string { return fp.fn }

// SendBegin starts handing a descriptor (and the buffer it owns) to the
// engine for inter-node transmission; the calling function must own d.Buf.
// It stamps d's interned tenant and destination IDs (a destination the
// engine has not seen is interned without a route, so it drops at TX
// unless a route is installed first), moves d.Buf from the function to the
// engine and opens the port-send span. The function's core then pays the
// returned channel send cost, and SendEnd ships d.
func (fp *FnPort) SendBegin(d *mempool.Descriptor) (time.Duration, trace.SpanRef, error) {
	d.Tenant = fp.tenant
	ts := fp.ts
	if ts == nil {
		ts = fp.engine.tenants[fp.tenant]
		if ts == nil {
			return 0, trace.SpanRef{}, fmt.Errorf("dne: tenant %q not registered with engine", fp.tenant)
		}
		fp.ts = ts
		fp.fnOwner = mempool.Owner(fp.fn)
	}
	d.TenantID = ts.id + 1
	if dst := d.Msg.Dst; fp.memoDstID == 0 || dst != fp.memoDst {
		fp.memoDst, fp.memoDstID = dst, fp.engine.internFn(dst)+1
	}
	d.DstID = fp.memoDstID
	if err := ts.pool.Transfer(d.Buf, fp.fnOwner, fp.engine.engOwner); err != nil {
		return 0, trace.SpanRef{}, err
	}
	return fp.sendCost, d.Trace.Begin(trace.StagePortSend, fp.fn), nil
}

// SendEnd closes the port-send span and ships d to the engine once the
// send cost is paid.
func (fp *FnPort) SendEnd(d mempool.Descriptor, sp trace.SpanRef) {
	sp.End()
	fp.toEngine.Send(d)
}

// NotifyRecv parks fn until the engine delivers a descriptor for this
// function, for a port TryRecv just found empty (see sim.Queue.Notify). fn
// takes the descriptor with TryRecv; its buffer is owned by the function.
func (fp *FnPort) NotifyRecv(fn func()) { fp.toFn.Notify(fn) }

// Received opens a received descriptor's port-receive span and returns the
// channel wakeup cost the function's core pays before the span ends.
func (fp *FnPort) Received(d *mempool.Descriptor) (trace.SpanRef, time.Duration) {
	return d.Trace.Begin(trace.StagePortRecv, fp.fn), fp.wakeCost
}

// TryRecv takes a delivered descriptor without blocking, if one is there.
func (fp *FnPort) TryRecv() (mempool.Descriptor, bool) { return fp.toFn.TryRecv() }

// engineSidePull fetches one pending fn->engine descriptor plus the cost
// the engine core must pay to ingest it: Comch-E's receive cost on the DPU,
// or the backlog-scaled interrupt cost on the CNE.
func (fp *FnPort) engineSidePull() (mempool.Descriptor, time.Duration, bool) {
	e := fp.engine
	if e.cfg.Loc == OnDPU {
		d, ok := fp.toEngine.TryRecv()
		return d, comch.DNERecvCost(e.p, len(e.ports)), ok
	}
	// Interrupt pressure scales with how loaded the engine already is:
	// each SK_MSG arrival preempts in-progress engine work (softirq,
	// context switch, cache pollution), so the per-event cost grows as
	// backlog builds — the receive-livelock dynamic that throttles the
	// CNE at high concurrency (§4.3) and that the DNE's hardware-polled
	// Comch input never pays.
	backlog := fp.toEngine.Pending() + e.sched.Pending()
	d, ok := fp.toEngine.TryRecv()
	return d, ipc.InterruptCost(e.p, backlog), ok
}
