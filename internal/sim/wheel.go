package sim

import (
	"math/bits"
	"time"
)

// Hierarchical timing wheel for the future timer band.
//
// The wheel holds events whose deadline is at least one tick past the
// drain boundary and within ~19.5 h of it. Events due at the current
// instant go to the engine's FIFO instead, and the rest of the current
// tick, or anything past the top level's reach, to the indexed 4-ary heap,
// which doubles as the exact-order firing stage. Layout:
//
//	level 0:  64 slots x 1.024 us  (one tick per slot, horizon  65.5 us)
//	level 1:  64 slots x 65.5 us   (64 ticks per slot, horizon  4.19 ms)
//	level 2:  64 slots x 4.19 ms   (4096 ticks/slot,   horizon   268 ms)
//	level 3:  64 slots x 268 ms    (256K ticks/slot,   horizon  17.2 s)
//	level 4:  64 slots x 17.2 s    (16M ticks/slot,    horizon  18.3 min)
//	level 5:  64 slots x 18.3 min  (1G ticks/slot,     horizon  19.5 h)
//
// Each slot is an intrusive doubly-linked list of pooled event nodes
// (insertion order; no map anywhere, so draining is deterministic), with a
// one-word occupancy bitmap per level. Insert and cancel are O(1). The
// engine never scans empty slots: the bitmaps give the next occupied slot
// in a handful of ALU ops, so a drain jumps straight from occupied slot to
// occupied slot regardless of how sparse virtual time is. The start of
// the earliest occupied slot is cached (bound): inserts lower it in O(1),
// and only a drain or a cancel that empties a slot sends the engine back
// to the bitmaps.
//
// Exactness: slots only *bucket* events. Before anything fires, the engine
// drains every slot whose start could precede the heap top into the heap,
// so events always fire in global (time, sequence) order — the wheel is an
// index in front of the heap, never a source of rounding. The equivalence
// oracle in equivalence.go (and simtest invariant #11) pins this property
// against a pure-heap reference.
const (
	wheelShift  = 10             // slot width 2^10 ns = 1.024us per level-0 tick
	wheelBits   = 6              // 64 slots per level
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1 // 63
	wheelLevels = 6              // horizon 64^6 ticks ~= 19.5h
	// wheelSpan is the wheel's total reach in ticks; deadlines at or past
	// wheelTick+wheelSpan overflow to the heap until they drift into range.
	wheelSpan = 1 << (wheelBits * wheelLevels)
	// noBound marks the cached next-slot bound as unknown.
	noBound = -1
)

// wheel is the engine's future timer index.
type wheel struct {
	// slots holds the bucket heads, level-major: slots[lvl*64+idx].
	slots [wheelLevels * wheelSlots]*event
	// occupied has one bit per slot per level.
	occupied [wheelLevels]uint64
	// tick is the drain boundary: every event still in the wheel has
	// deadline tick >= tick. It only moves forward, and never past an
	// occupied slot without draining it.
	tick int64
	// count is the number of events currently bucketed.
	count int
	// bound is the start tick of the earliest occupied slot, or noBound
	// when a drain or an emptying cancel has made it unknown. It may be
	// stale low (that only drains early, which is exact) but never stale
	// high: RunUntil would then stop short of an earlier slot and move the
	// clock past it, or fire a heap event ahead of an earlier one still
	// bucketed.
	bound int64
}

// wheelTickOf converts a deadline to its wheel tick.
func wheelTickOf(t time.Duration) int64 { return int64(t) >> wheelShift }

// levelFor returns the wheel level for an event tick tk relative to the
// drain boundary cur, or -1 if tk is out of the wheel's reach (at/behind
// the boundary, or past the top level's current revolution).
//
// The level is chosen by the highest bit where tk and cur differ — not by
// the raw delta. A delta-based rule can pick a level whose slot index wraps
// a full revolution (event lands in the cursor's own slot, one revolution
// ahead); the XOR rule guarantees the slot is within the current revolution
// of its level, so nextSlot's start math is exact and a cascade always
// moves events to a strictly lower level. The cost is that deadlines whose
// tick differs from cur above bit 35 overflow to the heap even when the
// raw delta is below 64^6; they are re-bucketed as the boundary advances.
func levelFor(cur, tk int64) int {
	if tk <= cur {
		return -1
	}
	masked := uint64(cur ^ tk)
	if masked >= wheelSpan {
		return -1
	}
	return (63 - bits.LeadingZeros64(masked)) / wheelBits
}

// insert buckets ev (with at/seq already stamped). The caller has checked
// that ev's tick is strictly after w.tick and within the horizon.
func (w *wheel) insert(ev *event, lvl int) {
	tk := wheelTickOf(ev.at)
	shift := uint(lvl) * wheelBits
	idx := int(tk>>shift) & wheelMask
	ev.lvl, ev.slot = int16(lvl), int16(idx)
	// The XOR level rule puts the slot ahead of the cursor within its
	// level's current revolution, so its start is tk with the level's low
	// bits cleared. The first insert into an empty wheel seeds the bound; a
	// later one can only lower it (an unknown bound stays unknown).
	if start := tk >> shift << shift; w.count == 0 || start < w.bound {
		w.bound = start
	}
	head := &w.slots[lvl*wheelSlots+idx]
	// Push-front: O(1), and order within a slot is irrelevant — the heap
	// re-establishes (at, seq) order at drain time.
	ev.prev = nil
	ev.next = *head
	if *head != nil {
		(*head).prev = ev
	}
	*head = ev
	w.occupied[lvl] |= 1 << uint(idx)
	ev.index = wheelIdx
	w.count++
}

// remove unlinks ev from its bucket (Cancel's O(1) path).
func (w *wheel) remove(ev *event) {
	head := &w.slots[int(ev.lvl)*wheelSlots+int(ev.slot)]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		*head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if *head == nil {
		w.occupied[ev.lvl] &^= 1 << uint(ev.slot)
		w.bound = noBound
	}
	ev.next, ev.prev = nil, nil
	ev.index = idleIdx
	w.count--
}

// nextSlot finds the occupied slot with the earliest start across all
// levels. It returns the level, slot index and the slot's absolute start
// tick. Only call with count > 0.
func (w *wheel) nextSlot() (lvl, idx int, startTick int64) {
	best := int64(1<<62 - 1)
	for l := 0; l < wheelLevels; l++ {
		occ := w.occupied[l]
		if occ == 0 {
			continue
		}
		shift := uint(l) * wheelBits
		cursor := int(w.tick>>shift) & wheelMask
		// Rotate the cursor's bit down to position 0 so the trailing-zero
		// count is the circular distance to the next occupied slot.
		off := bits.TrailingZeros64(bits.RotateLeft64(occ, -cursor))
		s := (cursor + off) & wheelMask
		// Absolute start: the next occurrence of slot s at or after the
		// cursor, in level-l slot units.
		base := w.tick >> shift
		rot := base - int64(cursor) + int64(s)
		if s < cursor {
			rot += wheelSlots
		}
		start := rot << shift
		// Prefer lower levels on ties: draining a level-0 slot advances the
		// boundary past it, and a tied higher-level slot still maps to the
		// same rotation afterwards.
		if start < best {
			best, lvl, idx = start, l, s
		}
	}
	return lvl, idx, best
}

// nextAt returns a lower bound on the earliest event still in the wheel:
// the start time of the earliest occupied slot, from the cached bound when
// it is known. Only call with count > 0.
func (w *wheel) nextAt() time.Duration {
	if w.bound == noBound {
		_, _, w.bound = w.nextSlot()
	}
	return time.Duration(w.bound << wheelShift)
}

// drainEarliest empties the earliest occupied slot: level-0 buckets feed
// the heap (the exact-order stage), higher levels cascade their events back
// through insert at the finer resolution now available. Each call advances
// the drain boundary and removes one slot, so the engine's drain loop
// always terminates.
func (e *Engine) drainEarliest() {
	w := &e.wheel
	lvl, idx, startTick := w.nextSlot()
	head := &w.slots[lvl*wheelSlots+idx]
	ev := *head
	*head = nil
	w.occupied[lvl] &^= 1 << uint(idx)
	w.bound = noBound
	if lvl == 0 {
		// Every tick up to and including this slot is clear now.
		if startTick+1 > w.tick {
			w.tick = startTick + 1
		}
		for ev != nil {
			next := ev.next
			ev.next, ev.prev = nil, nil
			w.count--
			e.heapPush(heapEntry{at: ev.at, seq: ev.seq, ev: ev})
			ev = next
		}
		return
	}
	// Cascade: anchor the boundary at the slot's start so the events'
	// shrunken deltas land in the finer levels (or the heap, if due).
	if startTick > w.tick {
		w.tick = startTick
	}
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.count--
		if l := levelFor(w.tick, wheelTickOf(ev.at)); l >= 0 {
			w.insert(ev, l)
		} else {
			e.heapPush(heapEntry{at: ev.at, seq: ev.seq, ev: ev})
		}
		ev = next
	}
}
