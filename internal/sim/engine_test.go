package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	fired := false
	ev := e.After(time.Millisecond, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelRemovesFromHeap(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = e.After(time.Duration(i+1)*time.Millisecond, func() { t.Fatal("canceled event fired") })
	}
	if e.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", e.Pending())
	}
	// Cancel out of order: tombstones, not removals, in every position.
	for _, i := range []int{5, 0, 9, 3, 7, 1, 8, 2, 6, 4} {
		evs[i].Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after cancel = %d, want 0 (canceled events must not count as queued)", e.Pending())
	}
	if evs[0].Pending() {
		t.Fatal("handle still pending after Cancel")
	}
	evs[0].Cancel() // double cancel is a no-op
	e.Run()
}

func TestZeroEventHandleInert(t *testing.T) {
	var ev Event
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("zero handle reports pending")
	}
}

// TestStaleHandleCannotTouchReusedNode proves the generation fence: once an
// event fires (or is canceled) its node returns to the pool, and a handle
// kept from the old life must not cancel the node's next occupant.
func TestStaleHandleCannotTouchReusedNode(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	stale := e.After(time.Millisecond, func() {})
	e.Run() // fires; node goes back to the pool
	fired := false
	fresh := e.After(time.Millisecond, func() { fired = true })
	stale.Cancel() // must be a no-op: different generation
	if stale.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if !fresh.Pending() {
		t.Fatal("fresh event lost its queue slot to a stale Cancel")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed the reused node's event")
	}

	// Same fence for cancel-then-reuse.
	a := e.After(time.Millisecond, func() { t.Fatal("canceled event fired") })
	a.Cancel()
	ok := false
	b := e.After(time.Millisecond, func() { ok = true })
	a.Cancel()
	e.Run()
	if !ok {
		t.Fatal("second Cancel on a recycled handle killed the new event")
	}
	_ = b
}

// TestSeqNeverReusedAcrossPooling checks that pooled nodes get fresh
// sequence numbers: same-instant events scheduled through heavy pool churn
// still fire in exact FIFO order.
func TestSeqNeverReusedAcrossPooling(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	// Churn the pool: fire and recycle a batch of nodes.
	for i := 0; i < 64; i++ {
		e.After(time.Microsecond, func() {})
	}
	e.Run()
	var got []int
	base := e.Now() + time.Millisecond
	for i := 0; i < 64; i++ {
		i := i
		e.At(base, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant FIFO violated after pooling: %v", got)
		}
	}
}

func TestSeqOverflowPanics(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	e.seq = math.MaxUint64 // white-box: next At would wrap seq to 0
	defer func() {
		if recover() == nil {
			t.Fatal("seq wrap did not panic")
		}
	}()
	e.After(time.Millisecond, func() {})
}

func TestSeqOrderingNearOverflow(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	e.seq = math.MaxUint64 - 8 // room for exactly 8 more events
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated near seq ceiling: %v", got)
		}
	}
}

// TestHeapStress drives a randomized schedule/cancel mix and checks the
// engine fires exactly the surviving events in (time, insertion) order.
func TestHeapStress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine(1)
		type rec struct {
			id int
			at time.Duration
		}
		var want []rec
		var got []int
		var handles []Event
		id := 0
		for i := 0; i < 400; i++ {
			at := time.Duration(rng.Intn(500)) * time.Microsecond
			myID := id
			id++
			ev := e.At(at, func() { got = append(got, myID) })
			handles = append(handles, ev)
			want = append(want, rec{id: myID, at: at})
			// Randomly cancel ~1/3 of what's still queued.
			if rng.Intn(3) == 0 && len(handles) > 0 {
				k := rng.Intn(len(handles))
				victim := handles[k]
				if victim.Pending() {
					victim.Cancel()
					// Drop it from the expectation.
					for j := range want {
						if want[j].id == k {
							want = append(want[:j], want[j+1:]...)
							break
						}
					}
				}
			}
		}
		// Stable sort by time keeps insertion order for ties — exactly the
		// engine's (at, seq) contract.
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		e.Run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].id {
				t.Fatalf("trial %d: fire order diverged at %d: got id %d, want %d", trial, i, got[i], want[i].id)
			}
		}
		e.Stop()
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	e.After(time.Second, func() {})
	e.RunUntil(500 * time.Millisecond)
	if e.Now() != 500*time.Millisecond {
		t.Fatalf("clock = %v, want 500ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(2 * time.Second)
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	e.After(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(time.Millisecond, func() {})
}

// TestProcSleep pins a wait on virtual time: a callback that continues
// after a delay resumes from one After event at exactly that instant.
func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var wake time.Duration
	e.Immediate(func() {
		e.After(42*time.Millisecond, func() { wake = e.Now() })
	})
	e.Run()
	if wake != 42*time.Millisecond || e.Fired() != 2 {
		t.Fatalf("woke at %v after %d events, want 42ms after 2", wake, e.Fired())
	}
}

// TestProcInterleaving pins two state machines started in order at the
// same instant: each step runs when its After fires, interleaved by time.
func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var trace []string
	e.Immediate(func() {
		trace = append(trace, "a0")
		e.After(10*time.Millisecond, func() {
			trace = append(trace, "a1")
			e.After(20*time.Millisecond, func() { trace = append(trace, "a2") })
		})
	})
	e.Immediate(func() {
		trace = append(trace, "b0")
		e.After(15*time.Millisecond, func() { trace = append(trace, "b1") })
	})
	e.Run()
	if got, want := fmt.Sprint(trace), "[a0 b0 a1 b1 a2]"; got != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// TestDeterminism drives three seeded producers and a consumer parked on
// Queue.Notify twice and requires the same consumption instants.
func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine(7)
		defer e.Stop()
		var stamps []time.Duration
		q := NewQueue[int](e, 0)
		for i := 0; i < 3; i++ {
			j := 0
			var produce func()
			produce = func() {
				q.TryPut(j)
				if j++; j < 5 {
					e.After(time.Duration(e.Rand().Intn(1000))*time.Microsecond, produce)
				}
			}
			e.Immediate(func() { e.After(time.Duration(e.Rand().Intn(1000))*time.Microsecond, produce) })
		}
		var consume func()
		consume = func() {
			for len(stamps) < 15 {
				if _, ok := q.TryGet(); !ok {
					q.Notify(consume)
					return
				}
				stamps = append(stamps, e.Now())
			}
		}
		e.Immediate(consume)
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("runs consumed %d and %d items, want 15", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStopReleasesBlockedProcs pins Stop: called from inside a callback it
// ends the run after that event, continuations still parked on a queue or
// a later timer never run, and no goroutine is left behind.
func TestStopReleasesBlockedProcs(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	ran := 0
	for i := 0; i < 5; i++ {
		q.Notify(func() { ran++ })
	}
	e.After(time.Millisecond, func() { ran++ })
	e.Immediate(e.Stop)
	e.Immediate(func() { ran++ })
	e.Run()
	q.TryPut(1)
	e.Run()
	if ran != 0 || e.Fired() != 1 || e.Procs() != 0 {
		t.Fatalf("after Stop: %d continuations ran, %d events fired, %d procs; want 0, 1, 0", ran, e.Fired(), e.Procs())
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after the run, %d before", n, goroutines)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var ticks []time.Duration
	stop := e.Ticker(10*time.Millisecond, func(now time.Duration) {
		ticks = append(ticks, now)
	})
	e.RunUntil(35 * time.Millisecond)
	stop()
	e.RunUntil(100 * time.Millisecond)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, tk := range ticks {
		if tk != time.Duration(i+1)*10*time.Millisecond {
			t.Fatalf("tick %d at %v", i, tk)
		}
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	fired := 0
	e.Ticker(10*time.Millisecond, func(time.Duration) { fired++ })
	e.RunFor(35 * time.Millisecond)
	if fired != 3 || e.Now() != 35*time.Millisecond {
		t.Fatalf("fired=%d now=%v", fired, e.Now())
	}
	e.RunFor(10 * time.Millisecond)
	if fired != 4 {
		t.Fatalf("second RunFor fired %d total", fired)
	}
}

func TestImmediateOrdersAfterCurrentInstant(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var got []int
	e.At(time.Millisecond, func() {
		e.Immediate(func() { got = append(got, 2) })
		got = append(got, 1)
	})
	e.At(time.Millisecond, func() { got = append(got, 3) })
	e.Run()
	// The Immediate lands after events already queued for this instant.
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestEventNodeSize pins the event layout: a slab node is its callback and
// its generation (at most 16 bytes), and the key the timer queue moves is
// at most 24 bytes with no pointer field, so the garbage collector never
// scans the run, the FIFO, the far list or a wheel slot.
func TestEventNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n > 16 {
		t.Fatalf("slab node is %d bytes, want at most 16", n)
	}
	if n := unsafe.Sizeof(key{}); n > 24 {
		t.Fatalf("key is %d bytes, want at most 24", n)
	}
	kt := reflect.TypeOf(key{})
	for i := 0; i < kt.NumField(); i++ {
		switch f := kt.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Uint64, reflect.Uint32:
		default:
			t.Fatalf("key field %s is a %v; keys must hold no pointer", f.Name, f.Type)
		}
	}
}

// TestCancelTombstonesStayBounded is BenchmarkEngineScheduleCancel's shape:
// a million timers armed 1 ms ahead and canceled at once, with no Run in
// between. Each cancel leaves a tombstone key in a wheel slot; compaction
// must keep the retained keys under a fixed bound, Cancel must drop the
// callback at once rather than when its slot drains, and the live events
// queued in every band beforehand must still fire, in order.
func TestCancelTombstonesStayBounded(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var want, got []time.Duration
	for i, d := range []time.Duration{300, 2 * tick, 70 * tick, 5000 * tick, time.Second, time.Hour, wheelSpan * tick * 2} {
		for j := 0; j < 3; j++ {
			at := d + time.Duration(i*j)
			want = append(want, at)
			e.At(at, func() { got = append(got, e.Now()) })
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	const bound = 4096
	for j := 0; j < 1_000_000; j++ {
		h := e.After(time.Millisecond+time.Duration(j%4096), func() { t.Fatal("a canceled event fired") })
		h.Cancel()
		if fn := e.slab[h.id].fn; fn != nil {
			t.Fatalf("cycle %d: the canceled event's callback is still held", j)
		}
		if n := e.wheel.count + len(e.run) - e.runHead + len(e.far); n >= bound {
			t.Fatalf("cycle %d: the queue retains %d keys, want fewer than %d", j, n, bound)
		}
	}
	if e.Pending() != len(want) {
		t.Fatalf("pending = %d, want %d", e.Pending(), len(want))
	}
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live events fired at %v, want %v", got, want)
	}
}

// TestGenerationTopRetiresNode pins the wrap fence: a node whose generation
// reaches the top is retired, not returned to the free list, so no stale
// handle or tombstone of an earlier occupant can ever match it again.
func TestGenerationTopRetiresNode(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	id := e.alloc()
	e.slab[id].gen = math.MaxUint32 - 1
	e.release(id)
	if len(e.free) != 0 {
		t.Fatalf("a node at generation %d went back to the free list", e.slab[id].gen)
	}
	if h := e.After(time.Millisecond, func() {}); h.id == id {
		t.Fatal("a retired node was reused")
	}
}
