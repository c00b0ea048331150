package sim

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/continuations.golden")

// The continuation forms (Processor.Run, Signal.Notify, Queue.Notify)
// fire in the exact event order their blocking process forms did, on FCFS
// and PS cores alike. This file drives seeded scripts as continuations and
// compares each run's log with testdata/continuations.golden, recorded
// from the process form before it was removed.

// stepKind is one block point of a scripted user.
type stepKind int

const (
	stepExec  stepKind = iota // Run on the user's core
	stepWait                  // Signal.Notify
	stepSleep                 // Engine.After
	stepGet                   // TryGet + Queue.Notify
)

type scriptStep struct {
	kind stepKind
	d    time.Duration // exec cost or sleep length
	sig  int           // signal or queue index
}

// foreignEv is an event outside every user: it logs itself and may pulse a
// signal, put an item on a queue, or change a core's speed (mid-service
// for whoever is queued on or sharing it).
type foreignEv struct {
	at    time.Duration
	pulse int     // signal to pulse, -1 for none
	put   int     // queue to put one item on, -1 for none
	core  int     // core to re-speed, -1 for none
	speed float64 // new speed when core >= 0
}

type logRec struct {
	at   time.Duration
	who  int // user index, or -1-i for foreign event i
	step int
}

// usersPerCore is three so a core's waiter list is long enough for the
// order completions leave it in to matter.
const usersPerCore = 3

// contScript is one seeded world: several users per core, shared signals
// and queues, and foreign events on the same microsecond grid the costs
// use, so ties at one instant are common. ps runs the cores under
// processor sharing.
type contScript struct {
	cores   int
	ps      bool
	users   [][]scriptStep
	foreign []foreignEv
}

func genContScript(seed int64) contScript {
	rng := rand.New(rand.NewSource(seed))
	const cores, sigs, steps = 2, 2, 24
	grid := func(max int) time.Duration { return time.Duration(rng.Intn(max+1)) * time.Microsecond }
	sc := contScript{cores: cores, ps: seed%2 == 0}
	for u := 0; u < usersPerCore*cores; u++ {
		var script []scriptStep
		for j := 0; j < steps; j++ {
			switch r := rng.Intn(12); {
			case r < 5:
				d := grid(3) // zero costs included
				if rng.Intn(4) == 0 {
					d += 500 * time.Nanosecond
				}
				script = append(script, scriptStep{kind: stepExec, d: d})
			case r < 7:
				script = append(script, scriptStep{kind: stepWait, sig: rng.Intn(sigs)})
			case r < 9:
				script = append(script, scriptStep{kind: stepGet, sig: rng.Intn(sigs)})
			default:
				script = append(script, scriptStep{kind: stepSleep, d: grid(2)})
			}
		}
		sc.users = append(sc.users, script)
	}
	speeds := []float64{0.25, 0.5, 1, 2}
	for i := 0; i < 160; i++ {
		ev := foreignEv{at: grid(80), pulse: -1, put: -1, core: -1}
		switch rng.Intn(4) {
		case 0:
			ev.pulse = rng.Intn(sigs)
		case 1:
			ev.put = rng.Intn(sigs)
		case 2:
			ev.core = rng.Intn(cores)
			ev.speed = speeds[rng.Intn(len(speeds))]
		}
		sc.foreign = append(sc.foreign, ev)
	}
	// A closing pulse and put train so users parked at the end still drain.
	for i := 0; i < 60; i++ {
		sc.foreign = append(sc.foreign, foreignEv{at: 100*time.Microsecond + time.Duration(i)*time.Microsecond,
			pulse: i % sigs, put: (i / 2) % sigs, core: -1})
	}
	return sc
}

// contWorld is one run's engine with the script's cores, signals, queues
// and log.
type contWorld struct {
	eng    *Engine
	cores  []*Processor
	sigs   []*Signal
	queues []*Queue[int]
	log    *[]logRec
}

// world builds the script's engine, cores, signals, queues and foreign
// events; the caller adds the users in index order.
func (sc contScript) world(seed int64) contWorld {
	eng := NewEngine(seed)
	w := contWorld{eng: eng, log: &[]logRec{}}
	disc := FCFS
	if sc.ps {
		disc = PS
	}
	for i := 0; i < sc.cores; i++ {
		w.cores = append(w.cores, NewProcessorDisc(eng, fmt.Sprintf("c%d", i), 1, disc))
	}
	w.sigs = []*Signal{NewSignal(eng), NewSignal(eng)}
	w.queues = []*Queue[int]{NewQueue[int](eng, 0), NewQueue[int](eng, 0)}
	for i, ev := range sc.foreign {
		i, ev := i, ev
		eng.At(ev.at, func() {
			*w.log = append(*w.log, logRec{at: eng.Now(), who: -1 - i})
			if ev.pulse >= 0 {
				w.sigs[ev.pulse].Pulse()
			}
			if ev.put >= 0 {
				w.queues[ev.put].TryPut(i)
			}
			if ev.core >= 0 {
				w.cores[ev.core].SetSpeed(ev.speed)
			}
		})
	}
	return w
}

// contUser is a scripted user as a state machine: each block point is one
// Run, Notify or After whose continuation is the bound stepFn, or a Get
// that takes a waiting item at once and otherwise parks gotFn with
// Queue.Notify.
type contUser struct {
	w             contWorld
	core          *Processor
	script        []scriptStep
	who, j        int
	stepFn, gotFn func()
}

func (cu *contUser) issue() {
	if cu.j == len(cu.script) {
		return
	}
	st := cu.script[cu.j]
	switch st.kind {
	case stepExec:
		cu.core.Run(st.d, cu.stepFn)
	case stepWait:
		cu.w.sigs[st.sig].Notify(cu.stepFn)
	case stepGet:
		q := cu.w.queues[st.sig]
		if _, ok := q.TryGet(); ok {
			cu.step()
			return
		}
		q.Notify(cu.gotFn)
	case stepSleep:
		cu.w.eng.After(st.d, cu.stepFn)
	}
}

func (cu *contUser) step() {
	*cu.w.log = append(*cu.w.log, logRec{at: cu.w.eng.Now(), who: cu.who, step: cu.j})
	cu.j++
	cu.issue()
}

// got resumes a parked getter, which the queue only wakes with an item
// there for it; an empty wake is logged as step -1 so the comparison fails.
func (cu *contUser) got() {
	if _, ok := cu.w.queues[cu.script[cu.j].sig].TryGet(); !ok {
		*cu.w.log = append(*cu.w.log, logRec{at: cu.w.eng.Now(), who: cu.who, step: -1})
		return
	}
	cu.step()
}

// startCont adds user u as a contUser started by one Immediate.
func (w contWorld) startCont(u int, script []scriptStep) {
	cu := &contUser{w: w, core: w.cores[u/usersPerCore], script: script, who: u}
	cu.stepFn, cu.gotFn = cu.step, cu.got
	w.eng.Immediate(cu.issue)
}

// run executes the script with every user a continuation and returns the
// log and the events fired.
func (sc contScript) run(seed int64) ([]logRec, uint64) {
	w := sc.world(seed)
	defer w.eng.Stop()
	for u, script := range sc.users {
		w.startCont(u, script)
	}
	w.eng.Run()
	return *w.log, w.eng.Fired()
}

// TestContinuationsMatchProcesses is the equivalence fence for Run, Notify
// and the continuation getter: over many seeded scripts — FCFS and PS
// cores, zero and nonzero costs, three users per core, foreign events at
// the same instants, pulses, puts and mid-service speed changes — each run
// logs the same number of (time, step) records with the same FNV-64
// digest, in the same number of events, as the process run recorded in
// the golden file. Regenerate it with -update only for a change that means
// to move event order.
func TestContinuationsMatchProcesses(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	want, err := os.ReadFile(contGolden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(want), "\n")
	var golden strings.Builder
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sc := genContScript(seed)
		log, fired := sc.run(seed)
		userSteps, gets := 0, 0
		for _, r := range log {
			if r.who >= 0 {
				userSteps++
				if sc.users[r.who][r.step].kind == stepGet {
					gets++
				}
			}
		}
		if userSteps < len(sc.users) || gets == 0 {
			t.Fatalf("seed %d: only %d user steps (%d gets) ran; the script exercises too little", seed, userSteps, gets)
		}
		got := fmt.Sprintf("%d %d %d %x", seed, len(log), fired, logDigest(log))
		fmt.Fprintln(&golden, got)
		if !*updateGolden && got != lines[seed-1] {
			t.Fatalf("seed %d (ps=%v): continuation run %q, process run %q (seed length fired digest)",
				seed, sc.ps, got, lines[seed-1])
		}
	}
	if *updateGolden {
		if err := os.WriteFile(contGolden, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const contGolden = "testdata/continuations.golden"

// logDigest is the FNV-64a hash of a log's (time, who, step) records.
func logDigest(log []logRec) uint64 {
	h := fnv.New64a()
	var b [24]byte
	for _, r := range log {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.at))
		binary.LittleEndian.PutUint64(b[8:], uint64(int64(r.who)))
		binary.LittleEndian.PutUint64(b[16:], uint64(int64(r.step)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRunZeroCostIsDeferred pins that a continuation never runs inside the
// call that registers or releases it, even for zero-cost work (FCFS or
// PS), a Pulse that finds it, or a Put that wakes it.
func TestRunZeroCostIsDeferred(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1)
	ps := NewProcessorDisc(eng, "ps", 1, PS)
	sig := NewSignal(eng)
	q := NewQueue[int](eng, 0)
	ran := 0
	fn := func() { ran++ }
	eng.At(0, func() {
		c.Run(0, fn)
		ps.Run(0, fn)
		sig.Notify(fn)
		sig.Pulse()
		q.Notify(fn)
		q.TryPut(1)
		if ran != 0 {
			t.Fatalf("continuation ran synchronously (%d)", ran)
		}
	})
	eng.Run()
	if ran != 4 {
		t.Fatalf("ran %d continuations, want 4", ran)
	}
}

// TestRunOnPSSharesTheCore pins Run on a PS core: two continuations
// admitted together share the core, so each takes twice its cost, and the
// core reports the first in service until it leaves.
func TestRunOnPSSharesTheCore(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessorDisc(eng, "ps", 1, PS)
	var runAt, otherAt time.Duration
	eng.At(0, func() {
		c.Run(10*time.Microsecond, func() { runAt = eng.Now() })
		if c.Load() != 1 {
			t.Fatalf("load %d after Run, want 1", c.Load())
		}
	})
	job(eng, c, 10*time.Microsecond, &otherAt)
	eng.Run()
	if runAt != 20*time.Microsecond || otherAt != 20*time.Microsecond {
		t.Fatalf("first Run done at %v, second at %v; want both at 20µs", runAt, otherAt)
	}
	if c.Load() != 0 || c.BusyTime() != 20*time.Microsecond {
		t.Fatalf("load %d, busy %v after both left; want 0, 20µs", c.Load(), c.BusyTime())
	}
}

// TestQueueNotifyOnNonEmptyPanics pins the getter's contract: a queue with
// an item waiting must be drained with TryGet, as Get would take it at once.
func TestQueueNotifyOnNonEmptyPanics(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	q := NewQueue[int](eng, 0)
	q.TryPut(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Notify on a non-empty queue did not panic")
		}
	}()
	q.Notify(func() {})
}

// TestRunAndNotifyAllocFree pins the steady-state zero-alloc claim: with a
// bound continuation, a Run (FCFS queued or immediate, PS shared), a
// Signal.Notify plus its wake event, and a Queue.Notify plus the Put
// that wakes it allocate nothing once the pools are warm.
func TestRunAndNotifyAllocFree(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1)
	ps := NewProcessorDisc(eng, "ps", 1, PS)
	sig := NewSignal(eng)
	q := NewQueue[int](eng, 0)
	n := 0
	fn := func() { n++ }
	run := func(core *Processor) func() {
		return func() {
			core.Run(time.Microsecond, fn)
			core.Run(0, fn)
			core.Run(2*time.Microsecond, fn)
			eng.Run()
		}
	}
	for _, core := range []*Processor{c, ps} {
		round := run(core)
		round()
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Fatalf("%s Processor.Run: %.1f allocs per round, want 0", core.Discipline(), allocs)
		}
	}
	notify := func() {
		sig.Notify(fn)
		sig.Notify(fn)
		sig.Pulse()
		eng.Run()
	}
	notify()
	if allocs := testing.AllocsPerRun(200, notify); allocs != 0 {
		t.Fatalf("Signal.Notify: %.1f allocs per round, want 0", allocs)
	}
	take := func() { q.TryGet() }
	get := func() {
		q.Notify(take)
		q.Notify(take)
		q.TryPut(1)
		q.TryPut(2)
		eng.Run()
	}
	get()
	if allocs := testing.AllocsPerRun(200, get); allocs != 0 {
		t.Fatalf("Queue.Notify: %.1f allocs per round, want 0", allocs)
	}
}

// TestImmediateAndCancelAllocFree pins the same-instant FIFO at zero
// allocations once warm: Immediate events fire from the ring, and a cancel
// at the current instant leaves a stale ring entry that the run loop skips
// while the recycled node fires from the next one.
func TestImmediateAndCancelAllocFree(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	n := 0
	fn := func() { n++ }
	immediate := func() {
		eng.Immediate(fn)
		eng.Immediate(fn)
		eng.Run()
	}
	cancel := func() {
		eng.Immediate(fn).Cancel()
		eng.At(eng.Now(), fn)
		eng.Run()
	}
	for _, c := range []struct {
		name  string
		round func()
		fires int
	}{{"Immediate", immediate, 2}, {"Cancel at now", cancel, 1}} {
		n = 0
		c.round()
		if n != c.fires {
			t.Fatalf("%s: %d events fired per round, want %d", c.name, n, c.fires)
		}
		if allocs := testing.AllocsPerRun(200, c.round); allocs != 0 {
			t.Fatalf("%s: %.1f allocs per round, want 0", c.name, allocs)
		}
	}
}
