package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// TestQueueBlockingAndCapacity pins the bounded queue and its parked
// getter: TryPut fails at capacity, and a getter parked on Notify wakes at
// the instant items arrive and takes them in FIFO order.
func TestQueueBlockingAndCapacity(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	q := NewQueue[int](e, 2)
	var got []int
	var at []time.Duration
	var take func()
	take = func() {
		for {
			v, ok := q.TryGet()
			if !ok {
				q.Notify(take)
				return
			}
			got = append(got, v)
			at = append(at, e.Now())
		}
	}
	e.Immediate(take)
	var refused []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Duration(i/3)*10*time.Millisecond, func() {
			if !q.TryPut(i) {
				refused = append(refused, i)
			}
		})
	}
	e.Run()
	if fmt.Sprint(got, at, refused) != "[0 1 3 4] [0s 0s 10ms 10ms] [2]" {
		t.Fatalf("took %v at %v, refused %v; want [0 1 3 4] at [0s 0s 10ms 10ms], refused [2]", got, at, refused)
	}
}

func TestQueueTryOps(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	q := NewQueue[string](e, 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	if !q.TryPut("a") {
		t.Fatal("TryPut on empty queue failed")
	}
	if q.TryPut("b") {
		t.Fatal("TryPut on full queue succeeded")
	}
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q,%v", v, ok)
	}
	if v, ok := q.TryGet(); !ok || v != "a" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}

func TestProcessorFCFSQueueing(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	c := NewProcessor(e, "core", 1.0)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		e.Immediate(func() {
			c.Run(10*time.Millisecond, func() { finish = append(finish, e.Now()) })
		})
	}
	e.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if c.BusyTime() != 30*time.Millisecond {
		t.Fatalf("busy = %v, want 30ms", c.BusyTime())
	}
}

func TestProcessorSpeedScaling(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	wimpy := NewProcessor(e, "arm", 0.5)
	var finish time.Duration
	job(e, wimpy, 10*time.Millisecond, &finish)
	e.Run()
	if finish != 20*time.Millisecond {
		t.Fatalf("finish = %v, want 20ms on half-speed core", finish)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	sig := NewSignal(e)
	woken := 0
	for i := 0; i < 3; i++ {
		sig.Notify(func() { woken++ })
	}
	e.After(time.Millisecond, func() { sig.Pulse() })
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

// Property: for any mix of put/get counts, a FIFO queue delivers items in
// insertion order and conserves them.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		e := NewEngine(seed)
		defer e.Stop()
		q := NewQueue[int](e, 0)
		var got []int
		put := 0
		var produce, consume, take func()
		produce = func() {
			q.TryPut(put)
			if put++; put < n {
				e.After(time.Duration(e.Rand().Intn(100))*time.Microsecond, produce)
			}
		}
		take = func() {
			v, ok := q.TryGet()
			if !ok {
				q.Notify(take)
				return
			}
			if got = append(got, v); len(got) < n {
				consume()
			}
		}
		consume = func() { e.After(time.Duration(e.Rand().Intn(100))*time.Microsecond, take) }
		e.Immediate(func() { e.After(time.Duration(e.Rand().Intn(100))*time.Microsecond, produce) })
		e.Immediate(consume)
		e.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessorChargeAndAccessors(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	c := NewProcessor(e, "core", 0.5)
	if c.Name() != "core" || c.Speed() != 0.5 {
		t.Fatal("accessors wrong")
	}
	c.Charge(10 * time.Millisecond)
	// The charge is backlog: none of it has been realized at t=0, so the
	// core cannot report more busy time than has elapsed.
	if c.BusyTime() != 0 {
		t.Fatalf("busy = %v, want 0 at t=0", c.BusyTime())
	}
	if c.Ops() != 1 {
		t.Fatalf("ops = %d", c.Ops())
	}
	if c.QueueDelay() != 20*time.Millisecond { // scaled by 1/0.5
		t.Fatalf("queue delay = %v", c.QueueDelay())
	}
	// Charge stacks behind the backlog.
	c.Charge(10 * time.Millisecond)
	if c.QueueDelay() != 40*time.Millisecond {
		t.Fatalf("stacked queue delay = %v", c.QueueDelay())
	}
	// Mid-backlog, realized busy time equals elapsed time (core saturated).
	e.RunUntil(10 * time.Millisecond)
	if c.BusyTime() != 10*time.Millisecond {
		t.Fatalf("busy = %v, want 10ms mid-backlog", c.BusyTime())
	}
	// A Run issued now waits behind both charges.
	var done time.Duration
	job(e, c, 5*time.Millisecond, &done)
	e.Run()
	if done != 50*time.Millisecond {
		t.Fatalf("exec finished at %v, want 50ms", done)
	}
	if c.BusyTime() != 50*time.Millisecond {
		t.Fatalf("busy = %v, want 50ms once backlog drains", c.BusyTime())
	}
}

// Property: realized busy time never exceeds elapsed virtual time on any
// core and is monotone non-decreasing, under a randomized mix of Runs and
// Charges (the Charge-during-Run double-accounting regression).
func TestProcessorBusyTimeWithinElapsed(t *testing.T) {
	e := NewEngine(7)
	defer e.Stop()
	cores := []*Processor{
		NewProcessor(e, "wimpy", 0.5),
		NewProcessor(e, "ref", 1.0),
		NewProcessor(e, "fast", 2.0),
	}
	const horizon = 50 * time.Millisecond
	for i := 0; i < 8; i++ {
		c := cores[i%len(cores)]
		var work, rest func()
		work = func() {
			if e.Now() < horizon {
				c.Run(time.Duration(1+e.Rand().Intn(500))*time.Microsecond, rest)
			}
		}
		rest = func() { e.After(time.Duration(e.Rand().Intn(300))*time.Microsecond, work) }
		e.Immediate(work)
	}
	stopCharge := e.Ticker(173*time.Microsecond, func(now time.Duration) {
		cores[e.Rand().Intn(len(cores))].Charge(time.Duration(e.Rand().Intn(400)) * time.Microsecond)
	})
	last := make([]time.Duration, len(cores))
	stopSample := e.Ticker(97*time.Microsecond, func(now time.Duration) {
		for i, c := range cores {
			busy := c.BusyTime()
			if busy > now {
				t.Fatalf("core %s: busy %v > elapsed %v", c.Name(), busy, now)
			}
			if busy < last[i] {
				t.Fatalf("core %s: busy went backwards %v -> %v", c.Name(), last[i], busy)
			}
			last[i] = busy
		}
	})
	e.RunUntil(60 * time.Millisecond)
	stopCharge()
	stopSample()
}

// TestProcAccessors pins the engine's process count: model code runs only
// as event callbacks, so Procs reads 0 before, during and after a run.
func TestProcAccessors(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	q := NewQueue[int](e, 0)
	during := -1
	e.Immediate(func() {
		q.Notify(func() {})
		during = e.Procs()
	})
	if e.Procs() != 0 {
		t.Fatalf("Procs = %d before the run, want 0", e.Procs())
	}
	e.Run()
	if during != 0 || e.Procs() != 0 {
		t.Fatalf("Procs = %d during the run and %d after, want 0", during, e.Procs())
	}
}
