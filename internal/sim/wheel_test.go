package sim

import (
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
		1,           // sub-tick (heap-resident, due band)
		tick,        // first level-0 slot
		63 * tick,   // last level-0 slot
		64 * tick,   // first level-1 slot
		64*tick + 1, // interior of first level-1 slot (cascades)
		(64*64 - 1) * tick,
		64 * 64 * tick, // first level-2 slot
		64 * 64 * 64 * tick,
		(wheelSpan - 1) * tick, // last representable tick
		wheelSpan * tick,       // past horizon: overflow heap
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
// overflow heap) and checks none fire and Pending drains to zero.
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

// TestCancelAtFireInstant is the regression for the pooled-node recycle
// bug: cancel a handle at the exact virtual instant its event fires (or
// just fired), with the freed node immediately re-armed by other work.
// A stale Cancel must not detach the node's next occupant. Covers
// same-instant FIFO, heap-resident (sub-tick) and wheel-resident victims.
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

// TestProcWakeFencing kills the window where a process's pending wake
// outlives the body: the Proc slot is recycled by a new Spawn before the
// stale wake's instant arrives. The wake must be swallowed by the
// generation fence, not resume the new occupant early.
func TestProcWakeFencing(t *testing.T) {
	e := NewEngine(6)
	q := NewWaitQueue(e)
	woken := 0
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * tick)
	})
	e.RunUntil(5 * tick) // sleeper finishes, slot recycled
	e.Spawn("waiter", func(p *Proc) {
		q.Wait(p) // reuses the recycled slot; parks indefinitely
		woken++
	})
	e.RunUntil(20 * tick)
	if woken != 0 {
		t.Fatal("recycled proc resumed by a stale or phantom wake")
	}
	q.WakeAll()
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
}

// TestProcPoolReuse verifies spawn actually recycles process state and
// that generations advance per occupancy.
func TestProcPoolReuse(t *testing.T) {
	e := NewEngine(7)
	var first, second *Proc
	e.Spawn("a", func(p *Proc) { first = p })
	e.Run()
	e.Spawn("b", func(p *Proc) { second = p })
	e.Run()
	if first != second {
		t.Fatal("second spawn did not reuse the pooled proc")
	}
	if len(e.freeProcs) != 1 {
		t.Fatalf("free list has %d procs, want 1", len(e.freeProcs))
	}
}

// TestSpawnSleepZeroAlloc asserts the steady-state spawn+sleep path is
// allocation-free once the pool is primed (satellite: BenchmarkProcSpawn
// must report 0 allocs/op).
func TestSpawnSleepZeroAlloc(t *testing.T) {
	e := NewEngine(8)
	// Prime: first spawn allocates the Proc, channels, goroutine, timer.
	e.Spawn("prime", func(p *Proc) { p.Sleep(tick) })
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Spawn("steady", func(p *Proc) {
			p.Sleep(tick)
			p.Sleep(3 * tick)
		})
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state spawn+sleep allocates %.1f/op, want 0", allocs)
	}
}

// TestWheelHeapEquivalenceProperty is the satellite #4 property test:
// the hybrid engine must fire in exactly the order and at exactly the
// times of a pure-heap reference over thousands of randomized
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
	qa, qb := NewWaitQueue(e), NewWaitQueue(e)
	var order []string
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		e.Spawn("wa-"+name, func(p *Proc) { qa.Wait(p); order = append(order, "A"+p.Name()) })
		e.Spawn("wb-"+name, func(p *Proc) { qb.Wait(p); order = append(order, "B"+p.Name()) })
	}
	e.Run() // park everyone
	qa.WakeAll()
	e.At(e.Now(), func() { order = append(order, "timer") })
	qb.WakeAll()
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
