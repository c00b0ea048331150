package sim

import (
	"time"

	"nadino/internal/ring"
)

// WaitQueue is a FIFO list of blocked processes. It is the building block
// for the higher-level primitives in this package; model code can also use
// it directly for ad-hoc conditions.
type WaitQueue struct {
	eng     *Engine
	waiters ring.Deque[*Proc]
}

// NewWaitQueue returns an empty wait queue bound to e.
func NewWaitQueue(e *Engine) *WaitQueue { return &WaitQueue{eng: e} }

// Wait blocks p until a Wake call releases it. FIFO order.
func (w *WaitQueue) Wait(p *Proc) {
	w.waiters.PushBack(p)
	p.block()
}

// WakeOne releases the oldest waiter, if any. The waiter resumes at the
// current virtual time, after events already queued for this instant.
func (w *WaitQueue) WakeOne() bool {
	if w.waiters.Len() == 0 {
		return false
	}
	p := w.waiters.PopFront()
	w.eng.wakeImmediate(p)
	return true
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

// Len reports the number of blocked processes.
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
