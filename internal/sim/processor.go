package sim

import (
	"fmt"
	"time"
)

// Discipline selects how a Processor shares its capacity among concurrent
// Run callers.
type Discipline int

const (
	// FCFS is exact first-come-first-served, non-preemptive service:
	// requests run to completion in Run-call order.
	FCFS Discipline = iota
	// PS is exact egalitarian processor sharing: the n in-service requests
	// each progress at speed/n, re-evaluated on every arrival, departure
	// and speed change. It is the limit of round-robin as the quantum goes
	// to zero, modeled without per-quantum events: each job's completion
	// instant is re-armed through a pooled event, so the re-arm hot path
	// allocates nothing.
	PS
)

func (d Discipline) String() string {
	if d == PS {
		return "PS"
	}
	return "FCFS"
}

// Processor models a single core. Costs passed to Run are expressed in
// reference-core time (the testbed's x86 core); the processor scales them
// by its Speed factor, so a wimpy DPU core with Speed 0.45 takes ~2.2x
// longer for the same work.
//
// The default FCFS discipline is exact: requests are served in Run-call
// order and each continuation runs at its own completion instant, so
// queueing delay under load emerges naturally. NewProcessorDisc selects
// processor sharing instead (see Discipline).
type Processor struct {
	eng       *Engine
	name      string
	speed     float64
	disc      Discipline
	busyUntil time.Duration
	busyTime  time.Duration
	ops       uint64
	// waiters tracks the continuations pending in Run with their
	// completion events, so SetSpeed can reschedule in-service work at the
	// new speed. The slice stays tiny (one entry per concurrent caller) and
	// is swap-removed on completion, so steady state allocates nothing.
	waiters []runWaiter
	// runDoneFn (FCFS) or psDoneFn (PS) is runDone or psDone bound once,
	// the completion callback of every Run.
	runDoneFn, psDoneFn func()

	// psJobs is the PS in-service set; rem is each job's remaining
	// reference-cost work. psLast is the last instant the set was advanced;
	// between advances every job drains at speed/len(psJobs).
	psJobs []psJob
	psLast time.Duration
}

// runWaiter is one Run continuation waiting for its completion instant.
type runWaiter struct {
	then func()
	done time.Duration
	ev   Event
}

// psJob is one in-service PS request.
type psJob struct {
	then func()
	rem  time.Duration // remaining reference-cost work
	ev   Event
}

// NewProcessor returns an FCFS core with the given relative speed
// (1.0 = reference).
func NewProcessor(e *Engine, name string, speed float64) *Processor {
	return NewProcessorDisc(e, name, speed, FCFS)
}

// NewProcessorDisc returns a core with the given speed and service
// discipline.
func NewProcessorDisc(e *Engine, name string, speed float64, disc Discipline) *Processor {
	if speed <= 0 {
		panic(fmt.Sprintf("sim: processor %q with non-positive speed", name))
	}
	c := &Processor{eng: e, name: name, speed: speed, disc: disc}
	if disc == PS {
		c.psDoneFn = c.psDone
	} else {
		c.runDoneFn = c.runDone
	}
	return c
}

// Scale converts a reference-core cost into this core's execution time.
func (c *Processor) Scale(cost time.Duration) time.Duration {
	return time.Duration(float64(cost) / c.speed)
}

// Run runs cost worth of reference-core work on this core and calls then
// at the completion instant: after any queueing delay plus the scaled
// service time (FCFS), or when its share of the core has drained the whole
// cost (PS). It schedules one event — a same-instant event when the work
// completes at once, else a completion event that SetSpeed (and, on a PS
// core, every arrival and departure) re-arms. then is only ever called
// from that fired event, never synchronously inside Run. Pass a function
// value bound once (e.g. a method value stored at setup): the core stores
// it as is, so a steady-state Run allocates nothing.
func (c *Processor) Run(cost time.Duration, then func()) {
	if cost < 0 {
		panic("sim: negative exec cost")
	}
	if c.disc == PS {
		c.runPS(cost, then)
		return
	}
	if !c.admit(cost) {
		c.eng.Immediate(then)
		return
	}
	ev := c.eng.At(c.busyUntil, c.runDoneFn)
	c.waiters = append(c.waiters, runWaiter{then: then, done: c.busyUntil, ev: ev})
}

// admit queues cost behind the FCFS backlog and accounts it, reporting
// whether the caller must wait for a completion instant (busyUntil) rather
// than resume at once.
func (c *Processor) admit(cost time.Duration) bool {
	now := c.eng.now
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	d := c.Scale(cost)
	c.busyUntil = start + d
	c.busyTime += d
	c.ops++
	return c.busyUntil > now
}

// runDone is the completion event of a Run. The fired entry is the one
// continuation whose event is no longer pending: each completion removes
// its entry before its continuation runs, so at most one can be.
func (c *Processor) runDone() {
	for i := range c.waiters {
		w := c.waiters[i]
		if !w.ev.Pending() {
			last := len(c.waiters) - 1
			c.waiters[i] = c.waiters[last]
			c.waiters[last] = runWaiter{}
			c.waiters = c.waiters[:last]
			w.then()
			return
		}
	}
}

// runPS admits a Run into the PS service set. Arrivals, departures and
// speed changes re-evaluate every in-service completion instant through
// pooled events, so steady-state churn allocates nothing. Zero-cost work
// completes at this instant through one same-instant event.
func (c *Processor) runPS(cost time.Duration, then func()) {
	now := c.eng.now
	c.psAdvance(now)
	c.ops++
	if cost == 0 {
		c.eng.Immediate(then)
		return
	}
	c.psJobs = append(c.psJobs, psJob{then: then, rem: cost})
	c.psRearm(now)
}

// psDone is the completion event of a PS Run. The fired job is the one
// continuation whose event is no longer pending (every set change re-arms
// all the others; events never fire early, so its remaining work is
// exactly zero): settle the drain since the last change, leave the set,
// re-arm the survivors, then run its continuation.
func (c *Processor) psDone() {
	for i := range c.psJobs {
		j := c.psJobs[i]
		if !j.ev.Pending() {
			now := c.eng.now
			c.psAdvance(now)
			c.dropPSJob(i)
			c.psRearm(now)
			j.then()
			return
		}
	}
}

// dropPSJob swap-removes psJobs[i].
func (c *Processor) dropPSJob(i int) {
	last := len(c.psJobs) - 1
	c.psJobs[i] = c.psJobs[last]
	c.psJobs[last] = psJob{}
	c.psJobs = c.psJobs[:last]
}

// psAdvance drains the in-service set for the time elapsed since the last
// change and accrues occupancy: a PS core is busy whenever its set is
// non-empty, regardless of how the capacity is split.
func (c *Processor) psAdvance(now time.Duration) {
	elapsed := now - c.psLast
	c.psLast = now
	n := len(c.psJobs)
	if elapsed <= 0 || n == 0 {
		return
	}
	c.busyTime += elapsed
	served := time.Duration(float64(elapsed) * c.speed / float64(n))
	for i := range c.psJobs {
		c.psJobs[i].rem -= served
		if c.psJobs[i].rem < 0 {
			c.psJobs[i].rem = 0
		}
	}
}

// psRearm reschedules every in-service job's completion event to its share-
// weighted finish instant: rem_i * n / speed from now, through a pooled
// event — the 0-alloc quantum re-arm the PS discipline is built on. Every
// re-arm takes a fresh sequence number, in set order.
func (c *Processor) psRearm(now time.Duration) {
	n := len(c.psJobs)
	for i := range c.psJobs {
		j := &c.psJobs[i]
		j.ev.Cancel()
		j.ev = c.eng.At(now+time.Duration(float64(j.rem)*float64(n)/c.speed), c.psDoneFn)
	}
}

// Charge accounts cost of busy time without blocking anyone. Use it for
// work performed inside another component's timeline (e.g. interrupt
// processing stolen from a core) where only utilization matters.
func (c *Processor) Charge(cost time.Duration) {
	d := c.Scale(cost)
	c.busyTime += d
	now := c.eng.now
	if c.busyUntil < now {
		c.busyUntil = now
	}
	c.busyUntil += d
	c.ops++
}

// BusyTime reports busy time realized so far (scaled). Run and Charge
// accrue their full cost into the backlog up front while the core serves it
// over [now, busyUntil]; the not-yet-served remainder is excluded here so
// that BusyTime never exceeds elapsed virtual time on any core and
// mid-run utilization samples (autoscalers, NetCPUStats) stay <= 100%.
func (c *Processor) BusyTime() time.Duration {
	busy := c.busyTime
	if pending := c.busyUntil - c.eng.now; pending > 0 {
		busy -= pending
	}
	// A PS core accrues occupancy lazily at set changes; add the open
	// interval since the last change while the set is non-empty.
	if len(c.psJobs) > 0 {
		if since := c.eng.now - c.psLast; since > 0 {
			busy += since
		}
	}
	return busy
}

// Ops reports the number of Run/Charge calls served.
func (c *Processor) Ops() uint64 { return c.ops }

// Name returns the core's name.
func (c *Processor) Name() string { return c.name }

// Speed returns the core's relative speed factor.
func (c *Processor) Speed() float64 { return c.speed }

// SetSpeed changes the core's relative speed, rescaling the in-service
// backlog so busy time is charged at the speed in effect while the work
// actually runs: the remaining portion of every accepted request stretches
// (slow-down) or shrinks (speed-up) by oldSpeed/newSpeed, pending Run
// continuations are rescheduled to their new completion instants, and
// busyTime is adjusted by the backlog delta so BusyTime() stays continuous
// through the transition and ends equal to realized occupied time. This is
// the degraded-core injection hook used by internal/chaos.
func (c *Processor) SetSpeed(speed float64) {
	if speed <= 0 {
		panic(fmt.Sprintf("sim: processor %q set to non-positive speed", c.name))
	}
	if speed == c.speed {
		return
	}
	now := c.eng.now
	if c.disc == PS {
		// Drain the in-service set at the old speed up to this instant,
		// then re-arm every completion at the new share rate.
		c.psAdvance(now)
	}
	ratio := c.speed / speed
	c.speed = speed
	if c.disc == PS {
		c.psRearm(now)
	}
	pending := c.busyUntil - now
	if pending <= 0 {
		return
	}
	newUntil := now + time.Duration(float64(pending)*ratio)
	c.busyTime += newUntil - c.busyUntil
	c.busyUntil = newUntil
	for i := range c.waiters {
		w := &c.waiters[i]
		if w.done <= now {
			// Completion event already due this instant; leave it be.
			continue
		}
		w.ev.Cancel()
		w.done = now + time.Duration(float64(w.done-now)*ratio)
		w.ev = c.eng.At(w.done, c.runDoneFn)
	}
}

// QueueDelay reports how long a request issued now would wait before
// starting service. Under PS service begins immediately (at a shared
// rate), so the queueing delay is always zero.
func (c *Processor) QueueDelay() time.Duration {
	if c.disc == PS {
		return 0
	}
	if c.busyUntil <= c.eng.now {
		return 0
	}
	return c.busyUntil - c.eng.now
}

// Discipline reports the core's service discipline.
func (c *Processor) Discipline() Discipline { return c.disc }

// Load reports the number of requests currently in PS service (0 on FCFS
// cores, which track backlog through QueueDelay instead).
func (c *Processor) Load() int { return len(c.psJobs) }
