package dne

import (
	"fmt"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/trace"
)

// FnPort is a function's descriptor channel to the node's network engine:
// a DOCA Comch endpoint when the engine is on the DPU, an SK_MSG socket
// pair when it is the CPU-hosted CNE. It is the only way a function touches
// the RDMA data plane — the isolation boundary of §3.3.
type FnPort struct {
	fn     string
	tenant string
	engine *Engine

	comch    *dpu.Endpoint
	toEngine *ipc.SKMsg // fn -> CNE
	toFn     *ipc.SKMsg // CNE -> fn

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
	sp := d.Trace.Begin(trace.StagePortSend, fp.fn)
	if fp.comch != nil {
		return fp.comch.SendCost(), sp, nil
	}
	return fp.toEngine.SendCost(), sp, nil
}

// SendEnd closes the port-send span and ships d to the engine once the
// send cost is paid.
func (fp *FnPort) SendEnd(d mempool.Descriptor, sp trace.SpanRef) {
	sp.End()
	if fp.comch != nil {
		fp.comch.SendToDNE(d)
		return
	}
	fp.toEngine.Send(d)
}

// NotifyRecv parks fn until the engine delivers a descriptor for this
// function, for a port TryRecv just found empty (see sim.Queue.Notify). fn
// takes the descriptor with TryRecv; its buffer is owned by the function.
func (fp *FnPort) NotifyRecv(fn func()) {
	if fp.comch != nil {
		fp.comch.NotifyOnHost(fn)
		return
	}
	fp.toFn.Notify(fn)
}

// Received opens a received descriptor's port-receive span and returns the
// channel wakeup cost the function's core pays before the span ends.
// charge is false when the wakeup is free (busy-polled Comch-P), where no
// cost is charged at all.
func (fp *FnPort) Received(d *mempool.Descriptor) (sp trace.SpanRef, cost time.Duration, charge bool) {
	sp = d.Trace.Begin(trace.StagePortRecv, fp.fn)
	if fp.comch != nil {
		cost = fp.comch.HostWakeupCost()
		return sp, cost, cost > 0
	}
	return sp, fp.toFn.WakeupCost(), true
}

// TryRecv takes a delivered descriptor without blocking, if one is there.
func (fp *FnPort) TryRecv() (mempool.Descriptor, bool) {
	if fp.comch != nil {
		return fp.comch.TryRecvOnHost()
	}
	return fp.toFn.TryRecv()
}

// PinsHostCore reports whether this channel burns a host core on polling.
func (fp *FnPort) PinsHostCore() bool {
	return fp.comch != nil && fp.comch.PinsHostCore()
}

// engineSidePull fetches one pending fn->engine descriptor plus the cost
// the engine core must pay to ingest it: the Comch progress-engine share on
// the DPU, or the backlog-scaled interrupt cost on the CNE.
func (fp *FnPort) engineSidePull() (mempool.Descriptor, time.Duration, bool) {
	if fp.comch != nil {
		d, ok := fp.comch.TryRecvFromHost()
		if !ok {
			return mempool.Descriptor{}, 0, false
		}
		return d, fp.comch.DNERecvCost(len(fp.engine.ports)), true
	}
	// Interrupt pressure scales with how loaded the engine already is:
	// each SK_MSG arrival preempts in-progress engine work (softirq,
	// context switch, cache pollution), so the per-event cost grows as
	// backlog builds — the receive-livelock dynamic that throttles the
	// CNE at high concurrency (§4.3) and that the DNE's hardware-polled
	// Comch input never pays.
	backlog := fp.toEngine.Pending() + fp.engine.sched.Pending()
	d, ok := fp.toEngine.TryRecv()
	if !ok {
		return mempool.Descriptor{}, 0, false
	}
	return d, fp.toEngine.InterruptCost(backlog), true
}

// engineSidePushCost is the engine-side cost of pushing one descriptor to
// the function.
func (fp *FnPort) engineSidePushCost() time.Duration {
	if fp.comch != nil {
		return fp.comch.SendCost()
	}
	return fp.toFn.SendCost()
}

// engineSidePush ships a descriptor engine -> function.
func (fp *FnPort) engineSidePush(d mempool.Descriptor) {
	if fp.comch != nil {
		fp.comch.SendToHost(d)
		return
	}
	fp.toFn.Send(d)
}
