package sim

import (
	"math/bits"
	"time"
)

// Hierarchical timing wheel for the future timer band.
//
// The wheel holds keys whose tick is past the drain boundary and within
// ~19.5 h of it; the current instant goes to the engine's FIFO, the
// boundary tick and earlier to the run, and anything past the top level's
// reach to the far list. Layout:
//
//	level 0:  64 slots x 1.024 us  (one tick per slot, horizon  65.5 us)
//	level 1:  64 slots x 65.5 us   (64 ticks per slot, horizon  4.19 ms)
//	level 2:  64 slots x 4.19 ms   (4096 ticks/slot,   horizon   268 ms)
//	level 3:  64 slots x 268 ms    (256K ticks/slot,   horizon  17.2 s)
//	level 4:  64 slots x 17.2 s    (16M ticks/slot,    horizon  18.3 min)
//	level 5:  64 slots x 18.3 min  (1G ticks/slot,     horizon  19.5 h)
//
// A slot holds its keys in insertion order (no map anywhere, so draining
// is deterministic) in a chain of fixed-size chunks from one free list, so
// capacity moves between slots and levels as keys do and steady state
// allocates nothing. An insert is an append, a cascade streams keys to
// finer slots without touching a node, and a canceled key stays behind as
// a tombstone until a drain or a compaction drops it. One occupancy bitmap
// per level gives the next occupied slot in a handful of ALU ops, however
// sparse virtual time is, and the earliest is cached (bound, lvl, idx):
// inserts lower it in O(1), and a drain, or a compaction that empties a
// slot, costs one bitmap search.
//
// Exactness: slots only bucket keys. Before anything fires, the engine
// drains every slot whose start could precede the run's head, so events
// fire in global (time, sequence) order. The equivalence oracle in
// equivalence.go (and simtest invariant #11) pins this against a
// linear-scan reference.
const (
	wheelShift  = 10             // slot width 2^10 ns = 1.024us per level-0 tick
	wheelBits   = 6              // 64 slots per level
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1 // 63
	wheelLevels = 6              // horizon 64^6 ticks ~= 19.5h
	// wheelSpan is the wheel's total reach in ticks; keys whose tick leaves
	// the boundary's top-level revolution wait in the far list until the
	// boundary reaches it.
	wheelSpan = 1 << (wheelBits * wheelLevels)
	// noBound marks the cached next-slot bound as unknown.
	noBound = -1
)

// chunkKeys is the number of keys in a chunk: with its link, 752 bytes,
// just inside the allocator's 768-byte size class.
const chunkKeys = 31

// chunk is one block of a slot's keys. The link comes first, so a chunk's
// first keys share its cache line.
type chunk struct {
	next *chunk // the slot's next chunk, or the next free one
	keys [chunkKeys]key
}

// slot is one wheel bucket: its chunks, oldest first, or none when empty.
// Every chunk but the last is full; n counts the keys in the last, so an
// insert touches only the slot and the cache line it writes.
type slot struct {
	head, tail *chunk
	n          int
}

// keysOf returns the keys chunk c of slot s holds.
func (s *slot) keysOf(c *chunk) []key {
	if c == s.tail {
		return c.keys[:s.n]
	}
	return c.keys[:]
}

// wheel is the engine's future timer index.
type wheel struct {
	// slots holds the buckets, level-major: slots[lvl*64+idx].
	slots [wheelLevels * wheelSlots]slot
	free  *chunk // free chunks, linked through next
	// occupied has one bit per slot per level.
	occupied [wheelLevels]uint64
	// tick is the drain boundary: every run key has a tick <= tick, and
	// every key still in the wheel a tick >= tick (> when it went in). It
	// only moves forward, and never past an occupied slot's start without
	// draining it.
	tick int64
	// count is the number of keys currently bucketed, tombstones included.
	count int
	// bound is the start tick of the earliest occupied slot, at level lvl
	// and index idx, or noBound when a drain or a compaction has made it
	// unknown. It is never stale high: RunUntil would then stop short of an
	// earlier slot and move the clock past it, or fire a run key ahead of
	// an earlier one still bucketed.
	bound    int64
	lvl, idx int
}

// wheelTickOf converts a deadline to its wheel tick.
func wheelTickOf(t time.Duration) int64 { return int64(t) >> wheelShift }

// beyondReach reports whether tick tk lies past the wheel's reach from the
// drain boundary cur: after it, and outside cur's top-level revolution.
func beyondReach(cur, tk int64) bool {
	return tk > cur && uint64(cur^tk) >= wheelSpan
}

// levelFor returns the wheel level for a key tick tk relative to the drain
// boundary cur, or -1 if tk is out of the wheel's reach (at/behind the
// boundary, or past the top level's current revolution).
//
// The level is chosen by the highest bit where tk and cur differ — not by
// the raw delta. A delta-based rule can pick a level whose slot index wraps
// a full revolution (key lands in the cursor's own slot, one revolution
// ahead); the XOR rule guarantees the slot is within the current revolution
// of its level, so nextSlot's start math is exact and a cascade always
// moves keys to a strictly lower level. The cost is that deadlines whose
// tick differs from cur above bit 35 go to the far list even when the raw
// delta is below 64^6; setTick moves them in as the boundary advances.
func levelFor(cur, tk int64) int {
	if tk <= cur || beyondReach(cur, tk) {
		return -1
	}
	return (63 - bits.LeadingZeros64(uint64(cur^tk))) / wheelBits
}

// insert buckets k, whose tick tk the caller has checked is strictly after
// w.tick and within the horizon, at level lvl.
func (w *wheel) insert(k key, tk int64, lvl int) {
	shift := uint(lvl) * wheelBits
	idx := int(tk>>shift) & wheelMask
	// The XOR level rule puts the slot ahead of the cursor within its
	// level's current revolution, so its start is tk with the level's low
	// bits cleared. The first insert into an empty wheel seeds the bound; a
	// later one can only lower it (an unknown bound stays unknown).
	if start := tk >> shift << shift; w.count == 0 || start < w.bound {
		w.bound, w.lvl, w.idx = start, lvl, idx
	}
	w.push(&w.slots[lvl*wheelSlots+idx], k)
	w.occupied[lvl] |= 1 << uint(idx)
	w.count++
}

// push appends k to slot s, chaining a free chunk when the last is full.
func (w *wheel) push(s *slot, k key) {
	if s.tail == nil || s.n == chunkKeys {
		c := w.free
		if c != nil {
			w.free, c.next = c.next, nil
		} else {
			c = new(chunk)
		}
		if s.tail != nil {
			s.tail.next = c
		} else {
			s.head = c
		}
		s.tail, s.n = c, 0
	}
	s.tail.keys[s.n] = k
	s.n++
}

// release returns chunk c to the free list and reports the chunk that
// followed it.
func (w *wheel) release(c *chunk) *chunk {
	next := c.next
	c.next, w.free = w.free, c
	return next
}

// nextSlot finds the occupied slot with the earliest start and returns its
// level, index and absolute start tick. Only call with count > 0.
//
// The boundary never passes an occupied slot's start, and by the XOR level
// rule a level-l key shares its 64^(l+1)-tick block, so a slot ahead of its
// level's cursor starts after every lower level's keys. The earliest is the
// highest-level occupied slot at its cursor when a level-0 drain has put the
// boundary, a multiple of 64 ticks, at such a slot's start (later keys in its
// span go lower), else the lowest set bit of the lowest non-empty level.
func (w *wheel) nextSlot() (lvl, idx int, startTick int64) {
	if w.tick&wheelMask == 0 {
		for lvl = wheelLevels - 1; lvl > 0; lvl-- {
			shift := uint(lvl) * wheelBits
			if idx = int(w.tick>>shift) & wheelMask; w.occupied[lvl]>>uint(idx)&1 != 0 {
				return lvl, idx, w.tick >> shift << shift
			}
		}
	}
	for w.occupied[lvl] == 0 {
		lvl++
	}
	idx = bits.TrailingZeros64(w.occupied[lvl])
	shift := uint(lvl) * wheelBits
	return lvl, idx, w.tick>>(shift+wheelBits)<<(shift+wheelBits) | int64(idx)<<shift
}

// nextAt returns a lower bound on the earliest key still in the wheel: the
// start time of the earliest occupied slot, from the cached bound when it
// is known. Only call with count > 0.
func (w *wheel) nextAt() time.Duration {
	if w.bound == noBound {
		w.lvl, w.idx, w.bound = w.nextSlot()
	}
	return time.Duration(w.bound << wheelShift)
}

// drainEarliest empties the earliest occupied slot, the one nextAt just
// found: a level-0 slot's live keys join the run, sorted; a higher level
// cascades its keys back through place at the finer resolution now
// available, which never puts one back in this slot. Each call advances
// the drain boundary and removes one slot, so the engine's drain loop
// always terminates.
func (e *Engine) drainEarliest() {
	w := &e.wheel
	lvl, startTick := w.lvl, w.bound
	s := &w.slots[lvl*wheelSlots+w.idx]
	sl := *s
	*s = slot{}
	w.occupied[lvl] &^= 1 << uint(w.idx)
	w.bound = noBound
	if lvl == 0 {
		startTick++ // every tick up to and including this slot is clear
	}
	// A cascade anchors the boundary at the slot's start, so the keys'
	// shrunken deltas land in finer levels (or the run, if due).
	e.setTick(max(startTick, w.tick))
	for c := sl.head; c != nil; c = w.release(c) {
		ks := sl.keysOf(c)
		w.count -= len(ks)
		for _, k := range ks {
			switch {
			case lvl > 0:
				e.place(k)
			case e.slab[k.id].gen == k.gen:
				e.run = append(e.run, k)
			default:
				e.dead--
			}
		}
	}
	if lvl == 0 {
		// The slot's keys are later than any the run held, bar far keys
		// setTick just moved in, so this sorts little more than them.
		sortKeys(e.run[e.runHead:])
	}
}
