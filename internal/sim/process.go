package sim

import (
	"runtime"
	"time"
)

// Proc is a coroutine-style simulation process. A Proc runs on its own
// goroutine but in strict lockstep with the engine: while the Proc executes,
// the engine (and every other Proc) is parked, so Proc bodies never race.
//
// Proc state is pooled: when a body returns, the Proc (channels, goroutine
// and timer slot included) goes back to the engine's free list and the next
// Spawn reuses it, so steady-state spawn churn allocates nothing and pays
// no goroutine start. Recycling bumps the Proc's generation; every wake
// event carries the generation it was issued against, so a wake scheduled
// for a finished process can never resume the slot's next occupant. A *Proc
// kept past its body's return observes the recycled state — treat it like a
// closed handle.
//
// Proc methods that block (Sleep, WaitQueue.Wait, Queue.Get, ...)
// must only be called from the Proc's own body.
type Proc struct {
	eng  *Engine
	name string
	// resume carries dispatch tokens (true) and Stop's poison (false). Both
	// channels are buffered one deep: strict alternation means at most one
	// token is ever outstanding, and the buffer lets the sender skip the
	// synchronous-handoff rendezvous — the hot dispatch path costs two
	// park/unpark pairs instead of four.
	resume chan bool
	yield  chan struct{}
	done   bool
	// gen is the pooling generation fence, bumped on every recycle.
	gen uint64
	// body is the current occupant's function, staged by Spawn and picked
	// up by the pooled goroutine on its next dispatch.
	body func(p *Proc)
	// startFn is p.start bound once at first allocation; scheduling it on
	// every Spawn must not re-allocate a method value.
	startFn func()
	// timer is the Proc's owned re-armable timer node (wakeProcAt): Sleep
	// and Processor.Exec re-stamp it in place instead of cycling the pool.
	timer *event
	// started reports whether the pooled goroutine is running.
	started bool
}

// Spawn starts body as a new process at the current virtual time. The body
// begins executing when the engine reaches the spawn event during Run.
// The process state comes from the engine's pool when available.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := e.allocProc()
	p.name = name
	p.body = body
	p.done = false
	e.procs.Add(1)
	e.At(e.now, p.startFn)
	return p
}

// allocProc pops a recycled process or builds a fresh one.
func (e *Engine) allocProc() *Proc {
	if n := len(e.freeProcs) - 1; n >= 0 {
		p := e.freeProcs[n]
		e.freeProcs[n] = nil
		e.freeProcs = e.freeProcs[:n]
		return p
	}
	p := &Proc{
		eng:    e,
		resume: make(chan bool, 1),
		yield:  make(chan struct{}, 1),
	}
	p.startFn = p.start
	e.allProcs = append(e.allProcs, p)
	return p
}

// releaseProc recycles a finished process. Called from the process
// goroutine right before its final yield, while the engine is parked in
// dispatch — the handoff orders the write against the next Spawn. The gen
// bump fences every outstanding wake reference.
func (e *Engine) releaseProc(p *Proc) {
	p.gen++
	p.body = nil
	p.name = ""
	e.freeProcs = append(e.freeProcs, p)
}

// start runs the staged body to its first block point, launching the pooled
// goroutine on first use. Called from engine context (the spawn event).
func (p *Proc) start() {
	if !p.started {
		p.started = true
		go p.run()
	}
	p.dispatch()
}

// run is the pooled goroutine's service loop: park until dispatched, run
// the staged body, recycle, repeat. It exits when the engine is stopped
// while parked between bodies (a kill mid-body exits through block's
// Goexit instead, running the body's deferred calls).
func (p *Proc) run() {
	for {
		if !p.await() {
			// Killed while parked idle (or before a staged body ran); any
			// still-staged body was counted at Spawn but the engine is dead,
			// matching the never-started accounting of an unpooled spawn.
			return
		}
		p.body(p)
		p.done = true
		p.eng.procs.Add(-1)
		p.eng.releaseProc(p)
		p.yield <- struct{}{}
	}
}

// dispatch hands control to the process and waits for it to yield or finish.
// Called from engine context (an event callback or another process that is
// itself being dispatched).
func (p *Proc) dispatch() {
	p.resume <- true
	<-p.yield
}

// await parks the process goroutine until the engine resumes it. It returns
// false if the engine was stopped (Stop's kill sweep delivered the poison
// token), in which case the goroutine must exit. Called from process
// context. A plain channel receive — no select — keeps the park/resume
// round trip on the two-channel fast path.
func (p *Proc) await() bool {
	return <-p.resume
}

// block yields control back to the engine and parks until woken. If the
// engine is stopped while parked, the process goroutine exits immediately
// (running deferred calls).
func (p *Proc) block() {
	p.yield <- struct{}{}
	if !p.await() {
		p.eng.procs.Add(-1)
		runtime.Goexit()
	}
}

// wake resumes a blocked process. It must be called from engine context;
// wake events reach here through Engine.fire with the generation already
// checked.
func (p *Proc) wake() {
	if p.done {
		return
	}
	p.dispatch()
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Sleep blocks the process for d of virtual time. The wakeup re-arms the
// process's owned timer slot in place — no pool traffic, no allocation.
// A zero sleep still yields through the event queue so same-instant
// ordering is consistent with a zero-length timer.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.eng.wakeProcAt(p.eng.now+d, p)
	p.block()
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }
