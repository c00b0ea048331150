package sim

import (
	"time"

	"nadino/internal/ring"
)

// WaitQueue is a FIFO list of blocked processes. It is the building block
// for the higher-level primitives in this package; model code can also use
// it directly for ad-hoc conditions. A queue also holds one-shot
// continuations in the same FIFO: a Signal's (Signal.Notify), which its
// WakeAll delivers, and a Queue's getters (Queue.Notify), which WakeOne
// delivers.
type WaitQueue struct {
	eng     *Engine
	waiters ring.Deque[waiter]
	// woken holds the continuations WakeOne released, oldest first, until
	// their delivery events fire; each deliverFn (deliver, bound on first
	// use) event pops one, and events fire in scheduling order.
	woken     ring.Deque[func()]
	deliverFn func()
	// ready, when set, gates a released continuation: finding it false at
	// delivery, the continuation re-registers at the back instead of
	// running, as a woken process's Get loop waits again.
	ready func() bool
}

// waiter is one WaitQueue entry: a blocked process, or (fn set) a
// continuation registered by Signal.Notify or Queue.Notify.
type waiter struct {
	p  *Proc
	fn func()
}

// NewWaitQueue returns an empty wait queue bound to e.
func NewWaitQueue(e *Engine) *WaitQueue { return &WaitQueue{eng: e} }

// Wait blocks p until a Wake call releases it. FIFO order.
func (w *WaitQueue) Wait(p *Proc) {
	w.waiters.PushBack(waiter{p: p})
	p.block()
}

// WakeOne releases the oldest waiter, if any. The waiter resumes at the
// current virtual time, after events already queued for this instant: a
// process through its wake event, a continuation through one Immediate of
// its own, never synchronously inside WakeOne.
func (w *WaitQueue) WakeOne() bool {
	if w.waiters.Len() == 0 {
		return false
	}
	x := w.waiters.PopFront()
	if x.fn == nil {
		w.eng.wakeImmediate(x.p)
		return true
	}
	if w.deliverFn == nil {
		w.deliverFn = w.deliver
	}
	w.woken.PushBack(x.fn)
	w.eng.Immediate(w.deliverFn)
	return true
}

// deliver runs the oldest continuation WakeOne released, or re-registers it
// at the back when the queue's ready gate finds nothing for it.
func (w *WaitQueue) deliver() {
	fn := w.woken.PopFront()
	if w.ready != nil && !w.ready() {
		w.waiters.PushBack(waiter{fn: fn})
		return
	}
	fn()
}

// WakeAll releases every waiter in FIFO order as one batched delivery: the
// N wakeups ride a single timer-queue event at the current instant, so a
// broadcast to a thousand sleepers costs one dispatch, not a thousand.
func (w *WaitQueue) WakeAll() {
	n := w.waiters.Len()
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		w.eng.queueWake(w.waiters.PopFront())
	}
	w.eng.flushWakes(n)
}

// Len reports the number of queued waiters.
func (w *WaitQueue) Len() int { return w.waiters.Len() }

// Queue is a FIFO message queue between processes. With cap == 0 the queue
// is unbounded; otherwise Put blocks when full.
type Queue[T any] struct {
	eng     *Engine
	items   ring.Deque[T]
	cap     int
	getters *WaitQueue
	putters *WaitQueue
	closed  bool
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{
		eng:     e,
		cap:     capacity,
		getters: NewWaitQueue(e),
		putters: NewWaitQueue(e),
	}
}

func (q *Queue[T]) nonEmpty() bool { return q.items.Len() > 0 }

// Put appends v, blocking while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.cap > 0 && q.items.Len() >= q.cap {
		q.putters.Wait(p)
	}
	q.items.PushBack(v)
	q.getters.WakeOne()
}

// TryPut appends v without blocking, reporting success.
func (q *Queue[T]) TryPut(v T) bool {
	if q.cap > 0 && q.items.Len() >= q.cap {
		return false
	}
	q.items.PushBack(v)
	q.getters.WakeOne()
	return true
}

// Get removes and returns the oldest item, blocking while empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		q.getters.Wait(p)
	}
	v := q.items.PopFront()
	q.putters.WakeOne()
	return v
}

// Notify is Get for engine context, for a queue that TryGet just found
// empty: fn runs once, when an item is there for it. It takes its FIFO
// place among the getters beside blocked processes; the Put that reaches
// it delivers it through one same-instant event, and if a getter ahead of
// it took the item first it re-registers at the back, as Get's loop does.
// fn takes the item with TryGet. It is only ever called from that fired
// event, never synchronously inside Notify or Put. Pass a function value
// bound once: the queue stores it as is, so a steady-state Notify
// allocates nothing.
func (q *Queue[T]) Notify(fn func()) {
	if q.items.Len() > 0 {
		panic("sim: Queue.Notify on a non-empty queue; take the item with TryGet")
	}
	if q.getters.ready == nil {
		q.getters.ready = q.nonEmpty
	}
	q.getters.waiters.PushBack(waiter{fn: fn})
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.items.Len() == 0 {
		return zero, false
	}
	v := q.items.PopFront()
	q.putters.WakeOne()
	return v, true
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.items.Len() == 0 {
		return zero, false
	}
	return q.items.Front(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Signal is a broadcast condition: processes wait on it and any code can
// pulse it. Unlike WaitQueue it is level-safe for the common "check
// predicate, wait, recheck" loop shared by several pollers.
type Signal struct {
	wq *WaitQueue
}

// NewSignal returns a signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{wq: NewWaitQueue(e)} }

// Wait blocks p until the next Pulse.
func (s *Signal) Wait(p *Proc) { s.wq.Wait(p) }

// Notify is Wait for engine context: fn runs once, at the next Pulse. It
// takes its FIFO place beside blocked processes and rides the same batched
// wake event, so a continuation parked here resumes exactly where a process
// parked in Wait would. fn is only ever called from that fired event, never
// synchronously inside Notify or Pulse. Pass a function value bound once
// (e.g. a method value stored at setup): the queue stores it as is, so a
// steady-state Notify allocates nothing.
func (s *Signal) Notify(fn func()) { s.wq.waiters.PushBack(waiter{fn: fn}) }

// Pulse wakes all current waiters.
func (s *Signal) Pulse() { s.wq.WakeAll() }

// Ticker runs fn every interval of virtual time starting at the next
// interval boundary, until the returned stop function is called.
func (e *Engine) Ticker(interval time.Duration, fn func(now time.Duration)) (stop func()) {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn(e.now)
		e.After(interval, tick)
	}
	e.After(interval, tick)
	return func() { stopped = true }
}
