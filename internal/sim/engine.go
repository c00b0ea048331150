// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a timer queue. Model code runs only
// as event callbacks, on the goroutine that calls Run. A loop that waits is
// a state machine: each wait is one scheduled event whose callback
// continues the loop — After for a delay, Processor.Run for work on a
// core, Signal.Notify and Queue.Notify for a condition or an item — so
// simulations are fully deterministic for a given seed and are safe to
// write without locks.
//
// The hot path is allocation-free at steady state. An event is a slab
// node (its callback and a generation) plus a 24-byte key (at, seq, id,
// gen) with no pointer; the queue moves keys and touches a node only to
// fire it. The current instant goes to a FIFO, the current and next ~1 µs
// tick to the run, an array sorted on (at, seq), later deadlines to a
// hierarchical timing wheel (wheel.go) and those past its ~19.5 h reach to
// a sorted far list. Cancel frees the node at once and leaves its key as a
// tombstone. Events always fire in (time, sequence) order. Engines are
// single-threaded but independent — separate Engine instances may run
// concurrently on different goroutines, which is how the experiment runner
// shards sweep points across cores.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// node is one slab entry: a queued event's callback and the generation that
// tells its live key from the tombstones of the node's earlier occupants.
// A free node holds no callback.
type node struct {
	fn  func()
	gen uint32
}

// key is a queued event as the timer queue moves it: the ordering key and
// the slab address. It holds no pointer, so the garbage collector never
// scans the arrays that hold keys. A key is live while its gen matches its
// node's; once the event fires or is canceled it is a tombstone.
type key struct {
	at  time.Duration
	seq uint64
	id  uint32
	gen uint32
}

// less orders keys by time, breaking ties by insertion sequence so
// same-instant events fire FIFO.
func (a key) less(b key) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// sortKeys sorts ks on (at, seq). Keys are distinct, so any correct sort
// gives the one order: quicksort around the middle key down to short
// stretches, which insertion sort finishes. Written out so less inlines:
// slices.SortFunc took 1.33x the time on BenchmarkEngineSchedule (2-vCPU VM).
func sortKeys(ks []key) {
	for len(ks) > 12 {
		p, i, j := ks[len(ks)/2], 0, len(ks)-1
		for i <= j {
			for ks[i].less(p) {
				i++
			}
			for p.less(ks[j]) {
				j--
			}
			if i <= j {
				ks[i], ks[j] = ks[j], ks[i]
				i, j = i+1, j-1
			}
		}
		// Recurse into the shorter side and loop on the longer.
		if j+1 < len(ks)-i {
			sortKeys(ks[:j+1])
			ks = ks[i:]
		} else {
			sortKeys(ks[i:])
			ks = ks[:j+1]
		}
	}
	for i := 1; i < len(ks); i++ {
		k, j := ks[i], i
		for ; j > 0 && k.less(ks[j-1]); j-- {
			ks[j] = ks[j-1]
		}
		ks[j] = k
	}
}

// compactMin is the number of tombstones that, once they also outnumber the
// live events, makes Cancel compact the queue: O(1) per cancel, amortized.
const compactMin = 1024

// Event is a cancelable handle to a scheduled callback. The zero value is
// inert: Cancel on it is a no-op and Pending reports false.
type Event struct {
	eng *Engine
	id  uint32
	gen uint32
}

// Cancel removes the event in O(1): it bumps the node's generation, which
// turns the queued key into a tombstone, and frees the node, releasing its
// callback closure at once. Canceling an already-fired, already-canceled
// or zero handle is a no-op: every disarm bumps the generation, so a stale
// handle can never touch the node's next occupant even when the cancel
// lands at the exact virtual time the event fires.
func (h Event) Cancel() {
	e := h.eng
	if e == nil || e.slab[h.id].gen != h.gen {
		return
	}
	e.pending--
	e.release(h.id)
	if e.dead++; e.dead >= compactMin && e.dead > e.pending {
		e.compact()
	}
}

// Pending reports whether the event is still queued: not yet fired and not
// canceled.
func (h Event) Pending() bool {
	return h.eng != nil && h.eng.slab[h.id].gen == h.gen
}

// Engine is a discrete-event simulator. Create one with NewEngine, schedule
// work with At/After/Immediate, then call Run (or RunUntil / RunFor).
type Engine struct {
	now time.Duration
	seq uint64
	rng *rand.Rand

	slab []node   // event nodes, addressed by key.id
	free []uint32 // free slab ids, reused last in, first out

	// fifo holds the keys scheduled for the current instant, in seq order,
	// from fifoHead on. It empties before the clock moves and is reset to
	// its start whenever it drains.
	fifo     []key
	fifoHead int

	// run holds, from runHead on, the keys whose tick is at or before the
	// wheel's drain boundary — the current and the next tick — sorted on
	// (at, seq). It is reset to its start whenever it drains.
	run     []key
	runHead int

	wheel wheel // later keys, out to ~19.5 h
	far   []key // keys past the wheel's reach, sorted on (at, seq)

	pending int    // live queued events
	dead    int    // tombstones still queued
	fired   uint64 // events executed since construction

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
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	if e.seq == 0 {
		// Sequence numbers are never reused, even for recycled nodes: a
		// wrap would let two queued events compare equal on (at, seq) and
		// break the deterministic FIFO tie-order.
		panic("sim: event sequence overflow")
	}
	id := e.alloc()
	n := &e.slab[id]
	n.fn = fn
	k := key{at: t, seq: e.seq, id: id, gen: n.gen}
	e.pending++
	switch w := &e.wheel; {
	case t == e.now:
		// This seq is above every queued key's, and nothing scheduled later
		// can land on this instant outside the FIFO, so FIFO order is
		// (at, seq) order among the instant's late arrivals.
		e.fifo = append(e.fifo, k)
	case w.count == 0 && wheelTickOf(e.now) > w.tick:
		// Nothing bucketed: move the drain boundary up to the clock so
		// deltas stay small and keys land at the finest level.
		e.setTick(wheelTickOf(e.now))
		fallthrough
	default:
		e.place(k)
	}
	return Event{eng: e, id: id, gen: k.gen}
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) Event {
	return e.At(e.now+d, fn)
}

// Immediate schedules fn at the current virtual time, after any events
// already queued for this instant. It is the ordering-safe way to continue
// work from inside another callback.
func (e *Engine) Immediate(fn func()) Event { return e.At(e.now, fn) }

// place queues a key due after now: in the run if its tick is at or before
// the drain boundary, in the wheel if within its reach, else in the far
// list, whose keys all lie past every wheel key.
func (e *Engine) place(k key) {
	w := &e.wheel
	tk := wheelTickOf(k.at)
	switch l := levelFor(w.tick, tk); {
	case l >= 0:
		w.insert(k, tk, l)
	case tk <= w.tick:
		e.run = insertKey(e.run, e.runHead, k)
	default:
		e.far = insertKey(e.far, 0, k)
	}
}

// insertKey inserts k into ks[from:], which is sorted on (at, seq), at its
// place: an append when it sorts last, as a fresh key usually does, else
// after a binary search.
func insertKey(ks []key, from int, k key) []key {
	n := len(ks)
	if n == from || ks[n-1].less(k) {
		return append(ks, k)
	}
	lo, hi := from, n-1 // k sorts before ks[n-1]
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); k.less(ks[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	ks = append(ks, key{})
	copy(ks[lo+1:], ks[lo:n])
	ks[lo] = k
	return ks
}

// setTick moves the wheel's drain boundary forward to tk and moves every
// far-list key that it brings within the wheel's reach into the wheel (or
// the run), so far keys stay later than every other queued key.
func (e *Engine) setTick(tk int64) {
	e.wheel.tick = tk
	for len(e.far) > 0 && !beyondReach(tk, wheelTickOf(e.far[0].at)) {
		k := e.far[0]
		e.far = e.far[1:]
		e.place(k)
	}
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
	for !e.stopped && e.now <= t {
		var k key
		switch {
		case e.runHead < len(e.run) && e.run[e.runHead].at == e.now:
			// Run keys due now were scheduled before the clock reached this
			// instant, so they precede every FIFO entry.
			k = e.popRun()
		case e.fifoHead < len(e.fifo):
			k = e.fifo[e.fifoHead]
			if e.fifoHead++; e.fifoHead == len(e.fifo) {
				e.fifo = e.fifo[:0]
				e.fifoHead = 0
			}
		case e.advance(t):
			k = e.popRun()
		default:
			if e.now < t && t < 1<<62-1 {
				e.now = t
			}
			return
		}
		n := &e.slab[k.id]
		if n.gen != k.gen {
			e.dead-- // a tombstone: its event was canceled
			continue
		}
		// Every wheel and far key is later than the run's head, so the
		// clock moves only here, and only to a live event.
		e.now = k.at
		// Free the node before the callback runs: the callback may schedule
		// onto it, and any stale handle is fenced by the gen bump.
		fn := n.fn
		e.release(k.id)
		e.pending--
		e.fired++
		fn()
	}
}

// popRun removes the run's head key.
func (e *Engine) popRun() key {
	k := e.run[e.runHead]
	if e.runHead++; e.runHead == len(e.run) {
		e.run = e.run[:0]
		e.runHead = 0
	}
	return k
}

// advance makes the run's head the earliest queued key and reports whether
// it is due by t. It drains every wheel slot whose start could hold an
// earlier (or same-instant, lower-seq) key; slot starts are lower bounds,
// so "run head strictly earlier than the earliest occupied slot" is the
// safe stop. Far keys move in as the drain boundary reaches them, or when
// nothing nearer is queued. The head may be a tombstone, which RunUntil
// drops before the clock moves.
func (e *Engine) advance(t time.Duration) bool {
	w := &e.wheel
	for {
		if w.count == 0 {
			if len(e.run) == 0 && len(e.far) > 0 && e.far[0].at <= t {
				e.setTick(wheelTickOf(e.far[0].at))
				continue
			}
			break
		}
		wAt := w.nextAt()
		if len(e.run) > 0 && e.run[e.runHead].at < wAt || wAt > t {
			break
		}
		e.drainEarliest()
	}
	return len(e.run) > 0 && e.run[e.runHead].at <= t
}

// compact drops every tombstone the queue holds. Cancel calls it once
// tombstones outnumber both compactMin and the live events.
func (e *Engine) compact() {
	e.fifo, e.fifoHead = e.keepLive(e.fifo[:0], e.fifo[e.fifoHead:]), 0
	e.run, e.runHead = e.keepLive(e.run[:0], e.run[e.runHead:]), 0
	e.far = e.keepLive(e.far[:0], e.far)
	w := &e.wheel
	for l := range w.occupied {
		for occ := w.occupied[l]; occ != 0; occ &= occ - 1 {
			i := bits.TrailingZeros64(occ)
			s := &w.slots[l*wheelSlots+i]
			sl := *s
			*s = slot{}
			// Each chunk is read to the end before it is freed, so the
			// live keys it holds can refill the slot from the free list.
			for c := sl.head; c != nil; c = w.release(c) {
				ks := sl.keysOf(c)
				w.count -= len(ks)
				for _, k := range ks {
					if e.slab[k.id].gen == k.gen {
						w.push(s, k)
						w.count++
					}
				}
			}
			if s.head == nil {
				w.occupied[l] &^= 1 << uint(i)
				w.bound = noBound
			}
		}
	}
	e.dead = 0
}

// keepLive appends the live keys of src to dst, which may share its array
// as long as it starts at or before src.
func (e *Engine) keepLive(dst, src []key) []key {
	for _, k := range src {
		if e.slab[k.id].gen == k.gen {
			dst = append(dst, k)
		}
	}
	return dst
}

// Stop halts the simulation: a Run in progress returns after the current
// event, and later runs return at once. The engine must not be used
// afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events. Canceled events are never
// counted.
func (e *Engine) Pending() int { return e.pending }

// Fired reports the number of events executed since construction — the
// numerator of the engine's events/sec throughput.
func (e *Engine) Fired() uint64 { return e.fired }

// Procs reports the number of live simulation processes. Model code runs
// only as event callbacks, so it is always 0; it stays for callers that
// report it.
func (e *Engine) Procs() int { return 0 }

// ---- event slab ----

func (e *Engine) alloc() uint32 {
	if n := len(e.free) - 1; n >= 0 {
		id := e.free[n]
		e.free = e.free[:n]
		return id
	}
	e.slab = append(e.slab, node{})
	return uint32(len(e.slab) - 1)
}

// release frees a fired or canceled node. The gen bump turns its queued key
// into a tombstone and fences every outstanding handle; dropping fn
// releases the captured closure. A node whose generation reaches the top
// is retired instead, so no tombstone or stale handle can match it again.
func (e *Engine) release(id uint32) {
	n := &e.slab[id]
	n.fn = nil
	if n.gen++; n.gen != math.MaxUint32 {
		e.free = append(e.free, id)
	}
}
