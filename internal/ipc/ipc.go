// Package ipc models NADINO's descriptor channels: eBPF SK_MSG handoff
// between local sockets (§3.5.3) and, with its cost model in package dpu,
// DOCA Comch between a function and the DPU (§3.5.4). Both are a Chan. The
// semaphore token that moves buffer ownership along a function chain
// (§3.5.1) rides with each descriptor; senders charge it as
// params.SemTokenCost.
package ipc

import (
	"time"

	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/ring"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// Chan is a one-way descriptor channel: a descriptor sent on it reaches
// the receiver's queue a fixed latency later. Every descriptor on one
// channel takes that same latency, which never changes after
// construction, so deliveries fire in send order: Send pushes the
// descriptor onto an in-flight FIFO and schedules one delivery event bound
// once, and each delivery moves the oldest in-flight descriptor to the
// receive queue. A descriptor spends its transit and its wait in the
// receive queue in one trace stage, opened by Send and closed by TryRecv.
// Costs are the sender's and receiver's to charge on their own cores.
type Chan struct {
	eng     *sim.Engine
	latency time.Duration
	stage   string
	actor   string
	// wake, when set, runs after every delivery, in the delivering event:
	// an event-loop consumer's hook (the DNE or CNE marks the port ready
	// and wakes its loop).
	wake      func()
	inflight  ring.Deque[mempool.Descriptor]
	q         *sim.Queue[mempool.Descriptor]
	deliverFn func()
	sent      uint64
}

// NewChan returns a channel whose descriptors arrive latency after Send,
// traced as stage by actor. wake, if not nil, runs after each delivery.
func NewChan(eng *sim.Engine, latency time.Duration, stage, actor string, wake func()) *Chan {
	c := &Chan{eng: eng, latency: latency, stage: stage, actor: actor, wake: wake,
		q: sim.NewQueue[mempool.Descriptor](eng, 0)}
	c.deliverFn = c.deliver
	return c
}

// NewSKMsg returns an SK_MSG channel between two local endpoints.
// Transmission bypasses the kernel protocol stack: the sender pays
// params.SKMsgSendCost and the descriptor arrives after
// params.SKMsgDeliver. The receiver is woken through epoll
// (interrupt-driven, params.SKMsgWakeup per descriptor), which is cheap
// per message but becomes a storm when one consumer (a CPU-hosted network
// engine) fronts many functions; that consumer pays InterruptCost instead.
func NewSKMsg(eng *sim.Engine, p *params.Params, wake func()) *Chan {
	return NewChan(eng, p.SKMsgDeliver, trace.StageSKMsg, "skmsg", wake)
}

// InterruptCost is the softirq cost a shared engine (CNE) pays to ingest
// one SK_MSG descriptor given its current backlog: interrupt pressure makes
// each message more expensive as the queue deepens, throttling the CNE at
// high concurrency (§4.3). Hardware-polled engines (DNE) never pay this.
func InterruptCost(p *params.Params, backlog int) time.Duration {
	cost := p.SKMsgInterruptBase + time.Duration(backlog)*p.SKMsgInterruptSlope
	if cost > p.SKMsgInterruptCap {
		cost = p.SKMsgInterruptCap
	}
	return cost
}

// Send ships a descriptor; it arrives after the channel's latency.
func (c *Chan) Send(d mempool.Descriptor) {
	c.sent++
	d.Trace.BeginStage(c.stage, c.actor)
	c.inflight.PushBack(d)
	c.eng.After(c.latency, c.deliverFn)
}

func (c *Chan) deliver() {
	c.q.TryPut(c.inflight.PopFront())
	if c.wake != nil {
		c.wake()
	}
}

// Notify parks fn until a descriptor arrives, for a channel TryRecv just
// found empty (see sim.Queue.Notify); fn takes it with TryRecv.
func (c *Chan) Notify(fn func()) { c.q.Notify(fn) }

// TryRecv takes the oldest delivered descriptor without blocking.
func (c *Chan) TryRecv() (mempool.Descriptor, bool) {
	d, ok := c.q.TryGet()
	if ok {
		d.Trace.EndStage(c.stage)
	}
	return d, ok
}

// Pending reports delivered descriptors not yet taken (the CNE's interrupt
// backlog).
func (c *Chan) Pending() int { return c.q.Len() }

// Sent reports lifetime sends.
func (c *Chan) Sent() uint64 { return c.sent }
