package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestQueueBlockingAndCapacity(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	q := NewQueue[int](e, 2)
	var produced, consumed []time.Duration
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Put(p, i)
			produced = append(produced, p.Now())
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * time.Millisecond)
			v := q.Get(p)
			if v != i {
				t.Errorf("got %d, want %d", v, i)
			}
			consumed = append(consumed, p.Now())
		}
	})
	e.Run()
	if len(produced) != 4 || len(consumed) != 4 {
		t.Fatalf("produced %d consumed %d", len(produced), len(consumed))
	}
	// First two puts succeed immediately; third must wait for first get.
	if produced[1] != 0 {
		t.Fatalf("second put at %v, want 0", produced[1])
	}
	if produced[2] != 10*time.Millisecond {
		t.Fatalf("third put at %v, want 10ms", produced[2])
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
		e.Spawn("job", func(p *Proc) {
			c.Exec(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
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
	e.Spawn("job", func(p *Proc) {
		wimpy.Exec(p, 10*time.Millisecond)
		finish = p.Now()
	})
	e.Run()
	if finish != 20*time.Millisecond {
		t.Fatalf("finish = %v, want 20ms on half-speed core", finish)
	}
}

func TestCorePoolParallelism(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	cp := NewCorePool(e, "pool", 2, 1.0)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		e.Spawn("job", func(p *Proc) {
			cp.Exec(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	// 2 cores, 4 jobs of 10ms: finish at 10,10,20,20.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	sig := NewSignal(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
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
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Duration(e.Rand().Intn(100)) * time.Microsecond)
				q.Put(p, i)
			}
		})
		e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Duration(e.Rand().Intn(100)) * time.Microsecond)
				got = append(got, q.Get(p))
			}
		})
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
	// An Exec issued now waits behind both charges.
	var done time.Duration
	e.Spawn("job", func(p *Proc) {
		c.Exec(p, 5*time.Millisecond)
		done = p.Now()
	})
	e.Run()
	if done != 50*time.Millisecond {
		t.Fatalf("exec finished at %v, want 50ms", done)
	}
	if c.BusyTime() != 50*time.Millisecond {
		t.Fatalf("busy = %v, want 50ms once backlog drains", c.BusyTime())
	}
}

func TestCorePoolQueueDelayAndCharge(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	cp := NewCorePool(e, "pool", 2, 1.0)
	if cp.Size() != 2 || len(cp.Cores()) != 2 {
		t.Fatal("pool accessors wrong")
	}
	cp.Charge(10 * time.Millisecond)
	if cp.QueueDelay() != 0 {
		t.Fatal("second core should be free")
	}
	cp.Charge(10 * time.Millisecond)
	if cp.QueueDelay() != 10*time.Millisecond {
		t.Fatalf("both busy: delay = %v", cp.QueueDelay())
	}
	// Nothing realized yet at t=0; once the backlog drains the pool has
	// accumulated both charges.
	if cp.BusyTime() != 0 {
		t.Fatalf("pool busy = %v, want 0 at t=0", cp.BusyTime())
	}
	e.RunUntil(10 * time.Millisecond)
	if cp.BusyTime() != 20*time.Millisecond {
		t.Fatalf("pool busy = %v, want 20ms after backlog", cp.BusyTime())
	}
}

// Property: realized busy time never exceeds elapsed virtual time on any
// core and is monotone non-decreasing, under a randomized mix of blocking
// Execs and non-blocking Charges (the Charge-during-Run double-accounting
// regression).
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
		e.Spawn("worker", func(p *Proc) {
			for p.Now() < horizon {
				c.Exec(p, time.Duration(1+e.Rand().Intn(500))*time.Microsecond)
				p.Sleep(time.Duration(e.Rand().Intn(300)) * time.Microsecond)
			}
		})
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

func TestProcAccessors(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	p := e.Spawn("myproc", func(pr *Proc) {
		if pr.Name() != "myproc" || pr.Engine() != e {
			t.Error("proc accessors wrong")
		}
	})
	if p.Done() {
		t.Fatal("done before running")
	}
	e.Run()
	if !p.Done() {
		t.Fatal("not done after running")
	}
}
