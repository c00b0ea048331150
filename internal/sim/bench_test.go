package sim

import (
	"testing"
	"time"
)

// benchJitter is a tiny deterministic xorshift generator used to spread
// event timestamps so the heap benchmarks exercise real sift paths instead
// of degenerate FIFO order. It allocates nothing.
type benchJitter uint64

func (j *benchJitter) next() time.Duration { return j.within(4096) }

// within returns the next jittered duration in [0, d).
func (j *benchJitter) within(d time.Duration) time.Duration {
	x := uint64(*j)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*j = benchJitter(x)
	return time.Duration(x % uint64(d))
}

// BenchmarkEngineSchedule measures steady-state schedule+fire throughput
// with a populated heap: 512 self-rescheduling timers with jittered
// deadlines, so every op is one heap push plus one pop at depth ~log4(512).
// ns/op is the inverse of events/sec; allocs/op is the headline zero-alloc
// claim (the event pool must absorb all steady-state traffic).
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	const outstanding = 512
	jit := benchJitter(0x9e3779b97f4a7c15)
	fired, target := 0, 0
	var tick func()
	tick = func() {
		fired++
		if fired < target {
			eng.After(jit.next(), tick)
		}
	}
	run := func(n int) {
		fired, target = 0, n
		for i := 0; i < outstanding; i++ {
			eng.After(jit.next(), tick)
		}
		eng.Run()
	}
	run(outstanding * 4) // warm the heap and the event pool
	b.ResetTimer()
	run(b.N)
}

// BenchmarkEngineScheduleCancel measures the schedule-then-cancel cycle that
// dominates timeout-guarded workloads (every RDMA send posts a retransmit
// timer and cancels it on the ack). A heap that only marks canceled events
// retains them all here; immediate removal keeps it empty.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	jit := benchJitter(0x2545f4914f6cdd1d)
	for i := 0; i < 1024; i++ { // warm the event pool
		eng.After(jit.next(), func() {}).Cancel()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Millisecond+jit.next(), nop).Cancel()
	}
	b.StopTimer()
	eng.Run()
}

func nop() {}

// BenchmarkEngineImmediate measures the same-instant wakeup path (the
// process-to-process handoff primitive).
func BenchmarkEngineImmediate(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	n := 0
	var again func()
	again = func() {
		n++
		if n < b.N {
			eng.Immediate(again)
		}
	}
	eng.Immediate(again)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineFarTimers is scale-open's timer shape: 100k pending
// timers 1-30 s ahead (think times, each re-arming 1-30 s ahead when it
// fires) while one near timer re-arms itself 0-4 us ahead and issues one
// Immediate per op. Far timers must not tax the near path: they wait in
// the wheel, not in the firing heap.
func BenchmarkEngineFarTimers(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	jit := benchJitter(0x9e3779b97f4a7c15)
	var far func()
	far = func() { eng.After(time.Second+jit.within(29*time.Second), far) }
	for i := 0; i < 100_000; i++ {
		far()
	}
	n, target := 0, 0
	var near func()
	near = func() {
		n++
		eng.Immediate(nop)
		if n < target {
			eng.After(jit.within(4*time.Microsecond), near)
		}
	}
	run := func(ops int) {
		n, target = 0, ops
		eng.Immediate(near)
		for n < target {
			eng.RunFor(time.Millisecond)
		}
	}
	run(1 << 16) // warm the event pool and the wheel
	b.ResetTimer()
	run(b.N)
}

// BenchmarkProcSleep measures the coroutine yield/resume round trip through
// the event queue (spawn/yield cost in the issue's terms).
func BenchmarkProcSleep(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	eng.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkProcSpawn measures process creation + teardown.
func BenchmarkProcSpawn(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	for i := 0; i < b.N; i++ {
		eng.Spawn("p", func(p *Proc) {})
		eng.Run()
	}
}

// BenchmarkProcessorRun measures one FCFS unit of work in continuation form:
// Run queues the cost on a core and its completion event calls the bound
// continuation, which issues the next — the engine-context replacement for
// a process's Exec round trip (compare BenchmarkProcSleep).
func BenchmarkProcessorRun(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "core", 1)
	n := 0
	var again func()
	again = func() {
		n++
		if n < b.N {
			c.Run(time.Microsecond, again)
		}
	}
	c.Run(time.Microsecond, again)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkSignalNotify measures a continuation parked on a signal and
// released by a pulse: one Notify plus its batched wake event per op — the
// engine-context replacement for a process's Wait round trip.
func BenchmarkSignalNotify(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	sig := NewSignal(eng)
	n := 0
	var again func()
	again = func() {
		n++
		if n < b.N {
			sig.Notify(again)
			sig.Pulse()
		}
	}
	eng.Immediate(again)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkQueueNotify measures a continuation getter parked on an empty
// queue and woken by a put: one Notify, one TryPut and the one Immediate
// that delivers the getter per op — the engine-context replacement for a
// process's Queue.Get round trip.
func BenchmarkQueueNotify(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	q := NewQueue[int](eng, 0)
	n := 0
	var again func()
	again = func() {
		q.TryGet()
		n++
		if n < b.N {
			q.Notify(again)
			q.TryPut(n)
		}
	}
	q.Notify(again)
	q.TryPut(0)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkPSRun is BenchmarkPSQuantum in continuation form: 8 resident
// Run continuations churning through short service slices on a PS core,
// every admission and departure re-arming the whole set on pooled events.
func BenchmarkPSRun(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessorDisc(eng, "ps", 1.0, PS)
	const k = 8
	n := 0
	var again func()
	again = func() {
		n++
		if n < b.N {
			c.Run(100*time.Nanosecond, again)
		}
	}
	b.ResetTimer()
	for i := 0; i < k; i++ {
		c.Run(100*time.Nanosecond, again)
	}
	eng.Run()
}
