package sim

import (
	"testing"
	"time"
)

// TestPSSingleRequestMatchesFCFS is the defining property of exact PS: a
// request that never shares the core completes at the same instant (and
// accrues the same busy time) as it would under FCFS, for any cost, speed,
// and mid-service speed change.
func TestPSSingleRequestMatchesFCFS(t *testing.T) {
	costs := []time.Duration{0, 777 * time.Nanosecond, 10 * time.Microsecond, 3 * time.Millisecond}
	speeds := []float64{0.45, 1.0, 2.0}
	for _, cost := range costs {
		for _, speed := range speeds {
			run := func(disc Discipline) (time.Duration, time.Duration) {
				eng := NewEngine(1)
				defer eng.Stop()
				c := NewProcessorDisc(eng, "c", speed, disc)
				var done time.Duration
				job(eng, c, cost, &done)
				eng.Run()
				return done, c.BusyTime()
			}
			fDone, fBusy := run(FCFS)
			pDone, pBusy := run(PS)
			if fDone != pDone {
				t.Fatalf("cost=%v speed=%v: PS completes at %v, FCFS at %v", cost, speed, pDone, fDone)
			}
			if fBusy != pBusy {
				t.Fatalf("cost=%v speed=%v: PS busy %v, FCFS busy %v", cost, speed, pBusy, fBusy)
			}
		}
	}
}

// TestPSSingleRequestSetSpeedMatchesFCFS runs the chaos SlowCores pattern
// (degrade mid-service, restore later) against a lone request on both
// disciplines: with nothing to share, PS must track FCFS exactly.
func TestPSSingleRequestSetSpeedMatchesFCFS(t *testing.T) {
	changes := map[time.Duration]float64{
		2 * time.Microsecond: 0.5,
		6 * time.Microsecond: 1.0,
	}
	run := func(disc Discipline) (time.Duration, time.Duration) {
		eng := NewEngine(1)
		defer eng.Stop()
		c := NewProcessorDisc(eng, "c", 1.0, disc)
		done := execWithSpeedChanges(t, 10*time.Microsecond, changes, c, eng)
		return done, c.BusyTime()
	}
	fDone, fBusy := run(FCFS)
	pDone, pBusy := run(PS)
	if fDone != pDone || fBusy != pBusy {
		t.Fatalf("PS (done=%v busy=%v) diverges from FCFS (done=%v busy=%v)", pDone, pBusy, fDone, fBusy)
	}
	if fDone != 12*time.Microsecond {
		t.Fatalf("completion at %v, want 12µs", fDone)
	}
}

// TestPSShareStaggeredArrivals pins the egalitarian share arithmetic: A
// (10µs) runs alone for 5µs, then shares with B (10µs). A's remaining 5µs
// drains at half rate -> done at 15µs; B drains 5µs shared + 5µs alone ->
// done at 20µs.
func TestPSShareStaggeredArrivals(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessorDisc(eng, "c", 1.0, PS)
	var doneA, doneB time.Duration
	job(eng, c, 10*time.Microsecond, &doneA)
	eng.At(5*time.Microsecond, func() { job(eng, c, 10*time.Microsecond, &doneB) })
	eng.Run()
	if doneA != 15*time.Microsecond {
		t.Fatalf("A completes at %v, want 15µs", doneA)
	}
	if doneB != 20*time.Microsecond {
		t.Fatalf("B completes at %v, want 20µs", doneB)
	}
	if got := c.BusyTime(); got != 20*time.Microsecond {
		t.Fatalf("busy time %v, want 20µs occupancy", got)
	}
}

// TestPSBusyTimeConservationUnderSetSpeed drives two overlapping jobs
// through a degrade/restore cycle and checks conservation: completions land
// where the share-weighted work integral says, and BusyTime equals the
// occupied interval exactly (a PS core is busy whenever its set is
// non-empty, at any speed).
func TestPSBusyTimeConservationUnderSetSpeed(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessorDisc(eng, "c", 1.0, PS)
	var doneA, doneB time.Duration
	job(eng, c, 10*time.Microsecond, &doneA)
	job(eng, c, 10*time.Microsecond, &doneB)
	eng.At(4*time.Microsecond, func() { c.SetSpeed(0.5) })
	eng.At(12*time.Microsecond, func() { c.SetSpeed(1.0) })
	eng.Run()
	// [0,4): n=2 at speed 1 -> 2µs each (rem 8µs). [4,12): n=2 at 0.5 ->
	// 2µs each (rem 6µs). From 12µs, n=2 at speed 1 -> 12µs more.
	want := 24 * time.Microsecond
	if doneA != want || doneB != want {
		t.Fatalf("completions (%v, %v), want both at %v", doneA, doneB, want)
	}
	if got := c.BusyTime(); got != want {
		t.Fatalf("busy time %v, want %v (continuously occupied)", got, want)
	}
}

// TestPSBusyTimeNeverExceedsElapsed samples BusyTime mid-run under churn
// and speed changes: occupancy accrual must stay monotone and <= elapsed
// virtual time (the invariant utilization samplers rely on).
func TestPSBusyTimeNeverExceedsElapsed(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessorDisc(eng, "c", 1.0, PS)
	for i := 0; i < 4; i++ {
		i := i
		eng.At(time.Duration(i)*3*time.Microsecond, func() {
			job(eng, c, 7*time.Microsecond, nil)
		})
	}
	eng.At(5*time.Microsecond, func() { c.SetSpeed(0.5) })
	eng.At(15*time.Microsecond, func() { c.SetSpeed(2.0) })
	var last time.Duration
	stop := eng.Ticker(time.Microsecond, func(now time.Duration) {
		busy := c.BusyTime()
		if busy < last {
			t.Fatalf("BusyTime went backwards: %v -> %v at %v", last, busy, now)
		}
		if busy > now {
			t.Fatalf("BusyTime %v exceeds elapsed %v", busy, now)
		}
		last = busy
	})
	eng.RunUntil(60 * time.Microsecond)
	stop()
}

// TestPSQueueDelayZero: PS admits every request into service immediately.
func TestPSQueueDelayZero(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessorDisc(eng, "c", 1.0, PS)
	for i := 0; i < 3; i++ {
		job(eng, c, 10*time.Microsecond, nil)
	}
	eng.At(2*time.Microsecond, func() {
		if d := c.QueueDelay(); d != 0 {
			t.Fatalf("PS queue delay %v, want 0", d)
		}
		if c.Load() != 3 {
			t.Fatalf("PS load %d, want 3", c.Load())
		}
	})
	eng.Run()
}

// TestPSQuantumRearmZeroAlloc is the allocation fence for the PS re-arm hot
// path: once the event pool and the job slice are warm, admitting,
// re-arming and departing requests must not allocate — each completion
// event is a pooled node re-armed through the free list.
func TestPSQuantumRearmZeroAlloc(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessorDisc(eng, "ps", 1.0, PS)
	jobs := make([]*execLoop, 8)
	for i := range jobs {
		jobs[i] = newExecLoop(c, time.Microsecond)
	}
	run := func() {
		for _, j := range jobs {
			j.left = 50
			eng.Immediate(j.stepFn)
		}
		eng.Run()
	}
	run() // warm the event pool and psJobs capacity
	allocs := testing.AllocsPerRun(10, run)
	if allocs != 0 {
		t.Fatalf("PS quantum re-arm allocates %v per op, want 0", allocs)
	}
}

// job runs cost on c from one same-instant event and records the
// completion instant in *done when done is non-nil.
func job(eng *Engine, c *Processor, cost time.Duration, done *time.Duration) {
	eng.Immediate(func() {
		c.Run(cost, func() {
			if done != nil {
				*done = eng.Now()
			}
		})
	})
}

// execLoop runs cost on its core left more times, one Run after another,
// through one bound continuation.
type execLoop struct {
	c      *Processor
	cost   time.Duration
	left   int
	stepFn func()
}

func newExecLoop(c *Processor, cost time.Duration) *execLoop {
	l := &execLoop{c: c, cost: cost}
	l.stepFn = l.step
	return l
}

func (l *execLoop) step() {
	if l.left > 0 {
		l.left--
		l.c.Run(l.cost, l.stepFn)
	}
}
