// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a two-tier timer queue. Model code
// runs only as event callbacks, on the goroutine that calls Run. A loop
// that waits is a state machine: each wait is one scheduled event whose
// callback continues the loop — After for a delay, Processor.Run for work
// on a core, Signal.Notify and Queue.Notify for a condition or an item —
// so simulations are fully deterministic for a given seed and are safe to
// write without locks.
//
// The hot path is allocation-free at steady state: fired and canceled
// events return to a per-engine free list, and the timer queue has three
// parts. Events due at the current instant go to a FIFO ring; later ones
// go to a hierarchical timing wheel (wheel.go) in front of a hand-inlined
// indexed 4-ary min-heap. The wheel indexes the future out to ~19.5 h, so
// a million outstanding timers cost O(1) to insert and cancel; the heap
// holds the drained current slot (plus deadlines past the wheel's reach)
// and is the exact-order firing stage. Events always fire in (time,
// sequence) order. Engines are single-threaded but independent — separate
// Engine instances may run concurrently on different goroutines, which is
// how the experiment runner shards sweep points across cores.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event node location sentinels for event.index (>= 0 means a heap slot).
const (
	idleIdx  = -1 // not queued: free or fired
	wheelIdx = -2 // bucketed in the timing wheel
	fifoIdx  = -3 // queued in the same-instant FIFO
)

// event is a pooled timer-queue node. Model code never holds one directly:
// At/After return a generation-checked Event handle, so a handle kept past
// the callback's firing (or cancellation) can never reach into a recycled
// node. A node is in exactly one place at a time: the heap (index >= 0),
// a wheel bucket (index == wheelIdx), the same-instant FIFO (index ==
// fifoIdx), or idle (index == idleIdx).
type event struct {
	eng *Engine
	fn  func()

	// at/seq mirror the heap ordering key so wheel-bucketed nodes carry
	// their key with them into the heap at drain time.
	at  time.Duration
	seq uint64

	// next/prev link the node into its wheel bucket (intrusive, O(1)
	// cancel); lvl/slot locate the bucket head for unlinking.
	next, prev *event
	lvl, slot  int16

	// batch > 0 marks a batched wake event: firing pops that many entries
	// from the engine's wake queue and runs them in FIFO order.
	batch int32

	index int // heap position, or idleIdx / wheelIdx / fifoIdx
	gen   uint64
}

// Event is a cancelable handle to a scheduled callback. The zero value is
// inert: Cancel on it is a no-op and Pending reports false.
type Event struct {
	ev  *event
	gen uint64
}

// Cancel removes the event from the timer queue immediately — O(log n) out
// of the heap, O(1) out of a wheel bucket or the same-instant FIFO (whose
// ring entry goes stale by the generation bump and is skipped) — releasing
// its callback closure and returning the node to the engine's pool.
// Canceling an already-fired, already-canceled or zero handle is a no-op:
// every disarm bumps the node's generation, so a stale handle can never
// touch the slot's next occupant even when the cancel lands at the exact
// virtual time the event fires.
func (h Event) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return
	}
	eng := ev.eng
	switch {
	case ev.index >= 0:
		eng.heapRemove(ev.index)
	case ev.index == wheelIdx:
		eng.wheel.remove(ev)
	case ev.index == fifoIdx:
		ev.index = idleIdx
	default:
		return
	}
	eng.pending--
	eng.release(ev)
}

// Pending reports whether the event is still queued: not yet fired and not
// canceled.
func (h Event) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index != idleIdx
}

// heapEntry is one slot of the firing-stage heap. The ordering key lives
// inline in the heap slice so sift comparisons never dereference the node —
// the four children of a 4-ary parent are adjacent in memory, so a whole
// sibling comparison round usually costs one cache line.
type heapEntry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// entryLess orders entries by time, breaking ties by insertion sequence so
// same-instant events fire FIFO.
func entryLess(a, b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// fifoEntry is one slot of the same-instant FIFO. gen is the node's
// generation when it was queued: a cancel bumps it, so the run loop skips
// the entry, even if the node has been recycled and queued again since.
type fifoEntry struct {
	ev  *event
	gen uint64
}

// Engine is a discrete-event simulator. Create one with NewEngine, schedule
// work with At/After/Immediate, then call Run (or RunUntil / RunFor).
type Engine struct {
	now   time.Duration
	heap  []heapEntry // firing stage: drained + past-reach events, 4-ary min-heap on (at, seq)
	wheel wheel       // the future: hierarchical timing wheel
	free  []*event    // recycled nodes; bounds steady-state allocation at zero
	seq   uint64
	rng   *rand.Rand

	// fifo holds the events scheduled for the current instant, in seq
	// order, from fifoHead on. It is emptied before the clock moves and
	// reset to its start whenever it drains.
	fifo     []fifoEntry
	fifoHead int

	pending int    // queued events across heap, wheel and FIFO
	fired   uint64 // events executed since construction

	// wakeQ is the FIFO of batched Signal wakeups (insertion-order slice,
	// never a map: batch delivery must be deterministic). Batch events pop
	// from wakeHead in seq order, so the ring stays aligned.
	wakeQ    []func()
	wakeHead int

	stopped bool
	running bool
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t time.Duration, fn func()) Event {
	ev := e.alloc()
	ev.fn = fn
	e.schedule(ev, t)
	return Event{ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) Event {
	return e.At(e.now+d, fn)
}

// Immediate schedules fn at the current virtual time, after any events
// already queued for this instant. It is the ordering-safe way to continue
// work from inside another callback.
func (e *Engine) Immediate(fn func()) Event { return e.At(e.now, fn) }

// schedule stamps ev's ordering key and routes it: the current instant
// goes to the FIFO, deadlines within the wheel's reach go to the wheel and
// the rest (the current tick, or past the reach) to the heap. ev must be
// idle.
func (e *Engine) schedule(ev *event, t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	if e.seq == 0 {
		// Sequence numbers are never reused, even for pooled nodes: a wrap
		// would let two queued events compare equal on (at, seq) and break
		// the deterministic FIFO tie-order.
		panic("sim: event sequence overflow")
	}
	ev.at, ev.seq = t, e.seq
	e.pending++
	if t == e.now {
		// This seq is above every queued event's, and nothing scheduled
		// later can land on this instant outside the FIFO, so FIFO order is
		// (at, seq) order among the instant's late arrivals.
		ev.index = fifoIdx
		e.fifo = append(e.fifo, fifoEntry{ev: ev, gen: ev.gen})
		return
	}
	if e.wheel.count == 0 {
		// Nothing bucketed: re-anchor the drain boundary at the clock so
		// deltas stay small and events land at the finest level.
		e.wheel.tick = wheelTickOf(e.now)
	}
	if l := levelFor(e.wheel.tick, wheelTickOf(t)); l >= 0 {
		e.wheel.insert(ev, l)
		return
	}
	e.heapPush(heapEntry{at: t, seq: e.seq, ev: ev})
}

// flushWakes schedules a single event at the current instant that delivers
// the last n queued wakeups in FIFO order: N same-instant wakeups cost one
// timer-queue dispatch instead of N.
func (e *Engine) flushWakes(n int) {
	if n <= 0 {
		return
	}
	ev := e.alloc()
	ev.batch = int32(n)
	e.schedule(ev, e.now)
}

// Run executes events until the queue is empty or the engine is stopped.
func (e *Engine) Run() { e.RunUntil(1<<62 - 1) }

// RunFor runs for d of virtual time from now.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// RunUntil executes events with timestamps <= t, advancing the clock to t
// (or stopping earlier if the queue drains or Stop is called).
func (e *Engine) RunUntil(t time.Duration) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
loop:
	for !e.stopped && e.now <= t {
		var ev *event
		switch {
		case len(e.heap) > 0 && e.heap[0].at == e.now:
			// Heap events due now were scheduled before the clock reached
			// this instant, so they precede every FIFO entry.
			ev = e.heap[0].ev
			e.heapPopMin()
		case e.fifoHead < len(e.fifo):
			f := e.fifo[e.fifoHead]
			e.fifo[e.fifoHead] = fifoEntry{}
			if e.fifoHead++; e.fifoHead == len(e.fifo) {
				e.fifo = e.fifo[:0]
				e.fifoHead = 0
			}
			if f.ev.gen != f.gen {
				continue // canceled while queued
			}
			ev = f.ev
			ev.index = idleIdx
		default:
			// Every wheel event is later than now, so the clock moves only
			// here. Make the heap top the global minimum: drain every wheel
			// slot whose start could hold an earlier (or same-instant,
			// lower-seq) event. Slot starts are lower bounds, so "heap top
			// strictly earlier than the earliest occupied slot" is the safe
			// stop.
			for e.wheel.count > 0 {
				wAt := e.wheel.nextAt()
				if len(e.heap) > 0 && e.heap[0].at < wAt {
					break
				}
				if wAt > t {
					break
				}
				e.drainEarliest()
			}
			if len(e.heap) == 0 || e.heap[0].at > t {
				break loop
			}
			top := e.heap[0]
			e.heapPopMin()
			e.now = top.at
			ev = top.ev
		}
		e.pending--
		e.fired++
		e.fire(ev)
	}
	if !e.stopped && e.now < t && t < 1<<62-1 {
		e.now = t
	}
}

// fire executes one dequeued event. Pooled nodes are recycled before the
// callback runs: the callback may schedule onto the node we just freed, and
// any stale handle is fenced by the gen bump.
func (e *Engine) fire(ev *event) {
	if ev.batch == 0 {
		fn := ev.fn
		e.release(ev)
		fn()
		return
	}
	n := int(ev.batch)
	e.release(ev)
	for i := 0; i < n; i++ {
		fn := e.wakeQ[e.wakeHead]
		e.wakeQ[e.wakeHead] = nil
		e.wakeHead++
		if e.wakeHead == len(e.wakeQ) {
			e.wakeQ = e.wakeQ[:0]
			e.wakeHead = 0
		}
		fn()
	}
}

// Stop halts the simulation: a Run in progress returns after the current
// event, and later runs return at once. The engine must not be used
// afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events across the wheel, the heap
// and the same-instant FIFO. Canceled events are never counted.
func (e *Engine) Pending() int { return e.pending }

// Fired reports the number of events executed since construction — the
// numerator of the engine's events/sec throughput.
func (e *Engine) Fired() uint64 { return e.fired }

// Procs reports the number of live simulation processes. Model code runs
// only as event callbacks, so it is always 0; it stays for callers that
// report it.
func (e *Engine) Procs() int { return 0 }

// ---- event pool ----

func (e *Engine) alloc() *event {
	if n := len(e.free) - 1; n >= 0 {
		ev := e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
		return ev
	}
	return &event{eng: e, index: idleIdx}
}

// release returns a dequeued node to the pool. The gen bump invalidates
// every outstanding handle; dropping fn releases the captured closure.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.batch = 0
	ev.gen++
	e.free = append(e.free, ev)
}

// ---- indexed 4-ary min-heap on (at, seq) ----
//
// A 4-ary layout halves the tree depth of the classic binary heap, and the
// hand-inlined sift loops avoid container/heap's per-comparison interface
// calls and per-push `any` boxing. The node's index field supports
// O(log n) removal for Cancel. With the wheel absorbing the future and the
// FIFO the current instant, the heap holds only the drained current slot
// and deadlines past the wheel's ~19.5 h reach, so it stays shallow even
// under millions of outstanding timers.

func (e *Engine) heapPush(x heapEntry) {
	e.heap = append(e.heap, x)
	e.siftUp(len(e.heap) - 1)
}

// heapPopMin removes the earliest entry; the caller reads it from heap[0]
// beforehand.
func (e *Engine) heapPopMin() {
	h := e.heap
	n := len(h) - 1
	h[0].ev.index = idleIdx
	last := h[n]
	h[n] = heapEntry{}
	e.heap = h[:n]
	if n > 0 {
		e.heap[0] = last
		last.ev.index = 0
		e.siftDown(0)
	}
}

// heapRemove deletes the entry at index i (Cancel's removal path).
func (e *Engine) heapRemove(i int) {
	h := e.heap
	n := len(h) - 1
	h[i].ev.index = idleIdx
	last := h[n]
	h[n] = heapEntry{}
	e.heap = h[:n]
	if i < n {
		e.heap[i] = last
		last.ev.index = i
		e.siftDown(i)
		if last.ev.index == i {
			e.siftUp(i)
		}
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(x, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].ev.index = i
		i = parent
	}
	h[i] = x
	x.ev.index = i
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(h[c], h[min]) {
				min = c
			}
		}
		if !entryLess(h[min], x) {
			break
		}
		h[i] = h[min]
		h[i].ev.index = i
		i = min
	}
	h[i] = x
	x.ev.index = i
}
