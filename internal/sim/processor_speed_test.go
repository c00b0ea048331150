package sim

import (
	"testing"
	"time"
)

// execWithSpeedChanges runs one Run of cost on c starting at t=0 and
// returns the completion instant, applying setSpeed(at, speed) changes
// mid-service.
func execWithSpeedChanges(t *testing.T, cost time.Duration, changes map[time.Duration]float64, c *Processor, eng *Engine) time.Duration {
	t.Helper()
	var done time.Duration
	for at, sp := range changes {
		at, sp := at, sp
		eng.At(at, func() { c.SetSpeed(sp) })
	}
	job(eng, c, cost, &done)
	eng.Run()
	return done
}

func TestProcessorSetSpeedSlowdownMidService(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1.0)
	// 10us of work; at t=5us the core halves. The first 5us ran at full
	// speed, the remaining 5us of reference work takes 10us, so the request
	// completes at 15us — busy time charged at the speed in effect when the
	// work ran.
	done := execWithSpeedChanges(t, 10*time.Microsecond,
		map[time.Duration]float64{5 * time.Microsecond: 0.5}, c, eng)
	if done != 15*time.Microsecond {
		t.Fatalf("completion at %v, want 15µs", done)
	}
	if got := c.BusyTime(); got != 15*time.Microsecond {
		t.Fatalf("busy time %v, want 15µs (realized occupancy)", got)
	}
}

func TestProcessorSetSpeedSpeedupMidService(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1.0)
	// 10us of work; at t=5us the core doubles. Remaining 5us of reference
	// work takes 2.5us, so completion moves EARLIER, to 7.5us — a fixed
	// sleep could never deliver this.
	done := execWithSpeedChanges(t, 10*time.Microsecond,
		map[time.Duration]float64{5 * time.Microsecond: 2.0}, c, eng)
	if done != 7500*time.Nanosecond {
		t.Fatalf("completion at %v, want 7.5µs", done)
	}
	if got := c.BusyTime(); got != 7500*time.Nanosecond {
		t.Fatalf("busy time %v, want 7.5µs", got)
	}
}

func TestProcessorSetSpeedRestoreMidService(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1.0)
	// The chaos SlowCores pattern: degrade to 0.5 at 2us, restore to 1.0 at
	// 6us. Work timeline for a 10us request: [0,2) at speed 1 covers 2us of
	// reference work; [2,6) at speed 0.5 covers 2us; the remaining 6us runs
	// at speed 1 and ends at t=12us.
	done := execWithSpeedChanges(t, 10*time.Microsecond, map[time.Duration]float64{
		2 * time.Microsecond: 0.5,
		6 * time.Microsecond: 1.0,
	}, c, eng)
	if done != 12*time.Microsecond {
		t.Fatalf("completion at %v, want 12µs", done)
	}
	if got := c.BusyTime(); got != 12*time.Microsecond {
		t.Fatalf("busy time %v, want 12µs", got)
	}
	if c.Speed() != 1.0 {
		t.Fatalf("speed %v after restore, want 1.0", c.Speed())
	}
}

func TestProcessorSetSpeedPreservesFCFS(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1.0)
	var order []string
	var times []time.Duration
	submit := func(name string) {
		eng.Immediate(func() {
			c.Run(10*time.Microsecond, func() {
				order = append(order, name)
				times = append(times, eng.Now())
			})
		})
	}
	submit("a")
	submit("b")
	eng.At(5*time.Microsecond, func() { c.SetSpeed(0.5) })
	eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("completion order %v, want [a b]", order)
	}
	// a: 5us done at speed 1, 5us remaining stretches to 10us -> t=15us.
	// b: queued behind a; its 20us completion has 15us of backlog left at
	// the change, stretching to 30us -> t=35us.
	if times[0] != 15*time.Microsecond || times[1] != 35*time.Microsecond {
		t.Fatalf("completions %v, want [15µs 35µs]", times)
	}
}

func TestProcessorSetSpeedWhileIdle(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1.0)
	c.SetSpeed(0.5) // idle: nothing to rescale
	var done time.Duration
	job(eng, c, 5*time.Microsecond, &done)
	eng.Run()
	if done != 10*time.Microsecond {
		t.Fatalf("completion at %v, want 10µs at half speed", done)
	}
}

func TestProcessorBusyTimeContinuousAcrossSetSpeed(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1.0)
	var before, after time.Duration
	eng.At(5*time.Microsecond, func() {
		before = c.BusyTime()
		c.SetSpeed(0.25)
		after = c.BusyTime()
	})
	job(eng, c, 10*time.Microsecond, nil)
	eng.Run()
	if before != 5*time.Microsecond {
		t.Fatalf("busy before change %v, want 5µs", before)
	}
	if after != before {
		t.Fatalf("BusyTime jumped across SetSpeed: %v -> %v", before, after)
	}
}

// TestEngineScheduleZeroAlloc is the allocation fence for the engine's
// schedule+fire hot path: once the event pool is warm, scheduling must not
// allocate — this is what keeps the telemetry-off configuration zero
// overhead (no scraper events exist, and the path they would ride is
// allocation-free).
func TestEngineScheduleZeroAlloc(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	for i := 0; i < 64; i++ { // warm the event slab and the queue
		eng.After(time.Duration(i)*time.Microsecond, nop)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(time.Microsecond, nop)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %v per op, want 0", allocs)
	}
}
