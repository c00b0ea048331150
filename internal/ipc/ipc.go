// Package ipc models NADINO's intra-node descriptor channel: eBPF SK_MSG
// handoff between local sockets (§3.5.3). The semaphore token that moves
// buffer ownership along a function chain (§3.5.1) rides with each
// descriptor; senders charge it as params.SemTokenCost.
package ipc

import (
	"time"

	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// SKMsg is a unidirectional SK_MSG descriptor channel between two local
// endpoints. Transmission bypasses the kernel protocol stack; the receiver
// is woken through epoll (interrupt-driven), which is cheap per message but
// becomes a storm when one consumer (a CPU-hosted network engine) fronts
// many functions.
type SKMsg struct {
	eng *sim.Engine
	p   *params.Params
	q   *sim.Queue[mempool.Descriptor]
	// work optionally wakes an event-loop consumer (the CNE).
	work      *sim.Signal
	delivered uint64

	// freeDel pools delivery timer nodes so Send's per-descriptor After()
	// does not allocate a fresh closure per message.
	freeDel []*skDelivery
}

// skDelivery is a pooled in-flight descriptor; fn is bound once.
type skDelivery struct {
	c  *SKMsg
	d  mempool.Descriptor
	fn func()
}

func (c *SKMsg) allocDelivery(d mempool.Descriptor) *skDelivery {
	var dv *skDelivery
	if n := len(c.freeDel); n > 0 {
		dv = c.freeDel[n-1]
		c.freeDel = c.freeDel[:n-1]
	} else {
		dv = &skDelivery{c: c}
		dv.fn = dv.run
	}
	dv.d = d
	return dv
}

func (dv *skDelivery) run() {
	c := dv.c
	d := dv.d
	dv.d = mempool.Descriptor{}
	c.freeDel = append(c.freeDel, dv)
	c.delivered++
	c.q.TryPut(d)
	if c.work != nil {
		c.work.Pulse()
	}
}

// NewSKMsg creates a channel; work may be nil.
func NewSKMsg(eng *sim.Engine, p *params.Params, work *sim.Signal) *SKMsg {
	return &SKMsg{eng: eng, p: p, q: sim.NewQueue[mempool.Descriptor](eng, 0), work: work}
}

// SendCost is the sender-side CPU cost per descriptor.
func (c *SKMsg) SendCost() time.Duration { return c.p.SKMsgSendCost }

// WakeupCost is the receiver-side epoll wakeup CPU cost per descriptor.
func (c *SKMsg) WakeupCost() time.Duration { return c.p.SKMsgWakeup }

// InterruptCost is the softirq cost a shared engine (CNE) pays to ingest
// one descriptor given its current backlog: interrupt pressure makes each
// message more expensive as the queue deepens, throttling the CNE at high
// concurrency (§4.3). Hardware-polled engines (DNE) never pay this.
func (c *SKMsg) InterruptCost(backlog int) time.Duration {
	cost := c.p.SKMsgInterruptBase + time.Duration(backlog)*c.p.SKMsgInterruptSlope
	if cost > c.p.SKMsgInterruptCap {
		cost = c.p.SKMsgInterruptCap
	}
	return cost
}

// Send ships a descriptor; it arrives after the SK_MSG delivery latency.
// The caller pays SendCost on its own core first.
func (c *SKMsg) Send(d mempool.Descriptor) {
	d.Trace.BeginStage(trace.StageSKMsg, "skmsg")
	c.eng.After(c.p.SKMsgDeliver, c.allocDelivery(d).fn)
}

// Notify parks fn until a descriptor arrives, for a channel TryRecv just
// found empty (see sim.Queue.Notify); fn takes it with TryRecv. The
// receiver pays WakeupCost on its own core afterwards.
func (c *SKMsg) Notify(fn func()) { c.q.Notify(fn) }

// TryRecv is the non-blocking receive used by event loops.
func (c *SKMsg) TryRecv() (mempool.Descriptor, bool) {
	d, ok := c.q.TryGet()
	if ok {
		d.Trace.EndStage(trace.StageSKMsg)
	}
	return d, ok
}

// Pending reports queued descriptors (the CNE's interrupt backlog).
func (c *SKMsg) Pending() int { return c.q.Len() }

// Delivered reports lifetime deliveries.
func (c *SKMsg) Delivered() uint64 { return c.delivered }
