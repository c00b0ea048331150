package sim

import (
	"slices"
	"testing"
	"time"
)

// tick is one wheel slot width in duration units.
const tick = time.Duration(1) << wheelShift

// TestWheelCascadeBoundaries schedules events straddling every level
// boundary and checks they fire in timestamp order with exact times.
func TestWheelCascadeBoundaries(t *testing.T) {
	e := NewEngine(1)
	deadlines := []time.Duration{
		1,           // sub-tick (run-resident, due band)
		tick,        // first level-0 slot
		63 * tick,   // last level-0 slot
		64 * tick,   // first level-1 slot
		64*tick + 1, // interior of first level-1 slot (cascades)
		(64*64 - 1) * tick,
		64 * 64 * tick, // first level-2 slot
		64 * 64 * 64 * tick,
		(wheelSpan - 1) * tick, // last representable tick
		wheelSpan * tick,       // past horizon: far list
		3 * wheelSpan * tick,
	}
	var got []time.Duration
	for _, d := range deadlines {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	e.Run()
	for i, d := range deadlines {
		if got[i] != d {
			t.Fatalf("fire %d: got %v, want %v", i, got[i], d)
		}
	}
	if e.Pending() != 0 || e.wheel.count != 0 {
		t.Fatalf("residue after run: pending=%d wheel=%d", e.Pending(), e.wheel.count)
	}
}

// TestWheelRotation re-arms a short timer far past several full wheel
// rotations, exercising the cursor wrap math at each level.
func TestWheelRotation(t *testing.T) {
	e := NewEngine(2)
	fired := 0
	var arm func()
	arm = func() {
		fired++
		if fired < 500 {
			e.After(37*tick+13, arm) // co-prime stride: hits every slot index
		}
	}
	e.After(37*tick+13, arm)
	e.Run()
	if fired != 500 {
		t.Fatalf("fired %d, want 500", fired)
	}
	if want := 500 * (37*tick + 13); e.Now() != want {
		t.Fatalf("final time %v, want %v", e.Now(), want)
	}
}

// TestWheelCancel cancels wheel-resident events (every level plus the
// far list) and checks none fire and Pending drains to zero.
func TestWheelCancel(t *testing.T) {
	e := NewEngine(3)
	var evs []Event
	for _, d := range []time.Duration{tick, 70 * tick, 5000 * tick, wheelSpan * tick * 2} {
		evs = append(evs, e.At(d, func() { t.Error("cancelled event fired") }))
	}
	keep := 0
	e.At(100*tick, func() { keep++ })
	for _, ev := range evs {
		if !ev.Pending() {
			t.Fatal("event not pending before cancel")
		}
		ev.Cancel()
		if ev.Pending() {
			t.Fatal("event pending after cancel")
		}
		ev.Cancel() // double-cancel is a no-op
	}
	e.Run()
	if keep != 1 {
		t.Fatalf("surviving event fired %d times, want 1", keep)
	}
}

// TestCompactionBoundAtSlotStart is the regression for a next-slot search
// that took the lowest non-empty level as the earliest. Draining level-0
// slot 63 puts the drain boundary at tick 64, the start of an occupied
// level-1 slot; a key then scheduled for tick 74 goes to level 0, inside
// that slot's span. A compaction that empties a slot then drops the cached
// bound, and the recomputed one must still be the level-1 slot: otherwise
// the run key at 64 ticks + 500 fires ahead of the level-1 key at 64 ticks
// + 10 and the clock moves backwards, or a window ending at 64 ticks + 100
// leaves that key behind.
func TestCompactionBoundAtSlotStart(t *testing.T) {
	for _, until := range []time.Duration{time.Hour, 64*tick + 100} {
		e := NewEngine(1)
		var got []time.Duration
		rec := func() { got = append(got, e.Now()) }
		e.At(63*tick, func() {
			rec()
			e.At(74*tick, rec)
			e.At(64*tick+500, rec)
			for i := 0; i < compactMin; i++ {
				e.At(90*tick, nop).Cancel()
			}
		})
		e.At(64*tick+10, rec)
		e.RunUntil(until)
		want := []time.Duration{63 * tick, 64*tick + 10, 64*tick + 500, 74 * tick}
		if until < want[len(want)-1] {
			want = want[:2]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("RunUntil(%v): fired at %v, want %v", until, got, want)
		}
	}
}

// TestCancelAtFireInstant is the regression for the pooled-node recycle
// bug: cancel a handle at the exact virtual instant its event fires (or
// just fired), with the freed node immediately re-armed by other work.
// A stale Cancel must not detach the node's next occupant. Covers
// same-instant FIFO, run-resident (sub-tick; subtest "heap") and
// wheel-resident victims.
func TestCancelAtFireInstant(t *testing.T) {
	for _, band := range []struct {
		name  string
		delay time.Duration
	}{{"fifo", 0}, {"heap", 1}, {"wheel", 2 * tick}} {
		t.Run(band.name, func(t *testing.T) {
			e := NewEngine(4)
			var victim Event
			vFired, succFired := 0, 0
			victim = e.At(band.delay, func() { vFired++ })
			// Same instant, later seq: fires after victim, then cancels the
			// now-stale handle while the recycled node holds a new event.
			e.At(band.delay, func() {
				succ := e.At(e.Now()+band.delay, func() { succFired++ })
				victim.Cancel() // stale: must not touch succ's node
				if !succ.Pending() {
					t.Error("stale Cancel detached recycled node")
				}
			})
			e.Run()
			if vFired != 1 || succFired != 1 {
				t.Fatalf("victim fired %d (want 1), successor fired %d (want 1)", vFired, succFired)
			}
		})
	}
}

// TestCancelSameTickInterleavings sweeps every ordering of {fire A,
// cancel B, fire C} at one instant where B shares the node pool with A
// and C, asserting cancel-at-fire-time never recycles a generation a
// later waiter holds.
func TestCancelSameTickInterleavings(t *testing.T) {
	e := NewEngine(5)
	const at = 10 * tick
	fires := make([]int, 3)
	var b Event
	e.At(at, func() { fires[0]++; b.Cancel() }) // A cancels B at B's own fire instant
	b = e.At(at, func() { fires[1]++ })         // B: cancelled by A (same instant, earlier seq)
	e.At(at, func() { fires[2]++ })             // C: must still fire
	e.Run()
	if fires[0] != 1 || fires[1] != 0 || fires[2] != 1 {
		t.Fatalf("fires = %v, want [1 0 1]", fires)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run", e.Pending())
	}
}

// TestProcWakeFencing kills the window where a fired timer's handle
// outlives it: the node is recycled by the next schedule before the stale
// handle is used. Canceling through the stale handle must not touch the
// new occupant, and a continuation parked on a Signal wakes only at the
// Pulse.
func TestProcWakeFencing(t *testing.T) {
	e := NewEngine(6)
	sig := NewSignal(e)
	woken, late := 0, 0
	stale := e.After(5*tick, func() {})
	e.RunUntil(5 * tick) // the timer fires; its node goes back to the pool
	e.After(10*tick, func() { late++ })
	sig.Notify(func() { woken++ })
	stale.Cancel()
	if stale.Pending() {
		t.Fatal("a fired handle reports pending")
	}
	e.RunUntil(20 * tick)
	if woken != 0 || late != 1 {
		t.Fatalf("woken = %d, late = %d before the Pulse; want 0, 1", woken, late)
	}
	sig.Pulse()
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
}

// TestProcPoolReuse verifies scheduling recycles event nodes and that
// generations advance per occupancy.
func TestProcPoolReuse(t *testing.T) {
	e := NewEngine(7)
	first := e.Immediate(func() {})
	e.Run()
	second := e.Immediate(func() {})
	if first.id != second.id || first.gen == second.gen {
		t.Fatal("second schedule did not reuse the pooled node under a new generation")
	}
	e.Run()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d nodes, want 1", len(e.free))
	}
}

// TestSpawnSleepZeroAlloc asserts that a steady-state state machine —
// started by Immediate, waiting twice on After through bound continuations
// — is allocation-free once the event pool is primed.
func TestSpawnSleepZeroAlloc(t *testing.T) {
	e := NewEngine(8)
	var first, second func()
	first = func() { e.After(3*tick, second) }
	second = func() {}
	start := func() { e.After(tick, first) }
	e.Immediate(start)
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Immediate(start)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state start+sleep allocates %.1f/op, want 0", allocs)
	}
}

// TestWheelHeapEquivalenceProperty is the satellite #4 property test:
// the hybrid engine must fire in exactly the order and at exactly the
// times of a linear-scan reference over thousands of randomized
// schedule/cancel/re-arm scripts spanning every wheel band.
func TestWheelHeapEquivalenceProperty(t *testing.T) {
	seeds, maxFire := 10000, 60
	if testing.Short() {
		seeds = 1000
	}
	for seed := 0; seed < seeds; seed++ {
		if err := CheckEquivalence(int64(seed), maxFire); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchedWakeInterleaving checks that two same-instant broadcast
// batches deliver in issue order without absorbing each other's waiters,
// and interleave correctly with plain timers at the same instant.
func TestBatchedWakeInterleaving(t *testing.T) {
	e := NewEngine(9)
	qa, qb := NewSignal(e), NewSignal(e)
	var order []string
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		e.Immediate(func() {
			qa.Notify(func() { order = append(order, "Awa-"+name) })
			qb.Notify(func() { order = append(order, "Bwb-"+name) })
		})
	}
	e.Run() // park everyone
	qa.Pulse()
	e.At(e.Now(), func() { order = append(order, "timer") })
	qb.Pulse()
	e.Run()
	want := []string{"Awa-a", "Awa-b", "Awa-c", "timer", "Bwb-a", "Bwb-b", "Bwb-c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
