package sim

import (
	"time"

	"nadino/internal/ring"
)

// Queue is a FIFO message queue. With cap == 0 the queue is unbounded;
// otherwise TryPut fails when full.
type Queue[T any] struct {
	eng   *Engine
	items ring.Deque[T]
	cap   int
	// getters holds the continuations parked in Notify, oldest first, and
	// woken the ones TryPut released until their delivery events fire; each
	// deliverFn (deliver, bound on first use) event pops one, and events
	// fire in scheduling order.
	getters, woken ring.Deque[func()]
	deliverFn      func()
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{eng: e, cap: capacity}
}

// TryPut appends v without blocking, reporting success. It releases the
// oldest getter parked in Notify through one Immediate of its own, never
// synchronously inside TryPut.
func (q *Queue[T]) TryPut(v T) bool {
	if q.cap > 0 && q.items.Len() >= q.cap {
		return false
	}
	q.items.PushBack(v)
	if q.getters.Len() > 0 {
		if q.deliverFn == nil {
			q.deliverFn = q.deliver
		}
		q.woken.PushBack(q.getters.PopFront())
		q.eng.Immediate(q.deliverFn)
	}
	return true
}

// deliver runs the oldest getter TryPut released, or parks it again at the
// back when a getter ahead of it took the item first.
func (q *Queue[T]) deliver() {
	fn := q.woken.PopFront()
	if q.items.Len() == 0 {
		q.getters.PushBack(fn)
		return
	}
	fn()
}

// Notify parks fn until an item is there for it, for a queue that TryGet
// just found empty: fn runs once. Getters wait in FIFO order; the TryPut
// that reaches fn delivers it through one same-instant event, and if a
// getter ahead of it took the item first it parks again at the back. fn
// takes the item with TryGet. It is only ever called from that fired
// event, never synchronously inside Notify or TryPut. Pass a function
// value bound once: the queue stores it as is, so a steady-state Notify
// allocates nothing.
func (q *Queue[T]) Notify(fn func()) {
	if q.items.Len() > 0 {
		panic("sim: Queue.Notify on a non-empty queue; take the item with TryGet")
	}
	q.getters.PushBack(fn)
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.items.Len() == 0 {
		return zero, false
	}
	return q.items.PopFront(), true
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

// Signal is a broadcast condition: continuations wait on it with Notify
// and any code can pulse it. It suits the common "check predicate, wait,
// recheck" loop shared by several pollers.
type Signal struct {
	eng     *Engine
	waiters ring.Deque[func()]
}

// NewSignal returns a signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Notify parks fn until the next Pulse: fn runs once, from the
// same-instant event that Pulse schedules for it, never synchronously
// inside Notify or Pulse. Pass a function value bound once (e.g. a method
// value stored at setup): the signal stores it as is, so a steady-state
// Notify allocates nothing.
func (s *Signal) Notify(fn func()) { s.waiters.PushBack(fn) }

// Pulse wakes all current waiters, each through one Immediate, in the
// order they parked.
func (s *Signal) Pulse() {
	for n := s.waiters.Len(); n > 0; n-- {
		s.eng.Immediate(s.waiters.PopFront())
	}
}

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
