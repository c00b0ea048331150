package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The continuation forms (Processor.Run, Signal.Notify) promise the exact
// event order of their blocking twins (Processor.Exec, Signal.Wait). This
// file drives one seeded script both ways and compares the logs.

// stepKind is one block point of a scripted user.
type stepKind int

const (
	stepExec  stepKind = iota // Exec / Run on the user's core
	stepWait                  // Signal.Wait / Signal.Notify
	stepSleep                 // Proc.Sleep / Engine.After
)

type scriptStep struct {
	kind stepKind
	d    time.Duration // exec cost or sleep length
	sig  int
}

// foreignEv is an event outside every user: it logs itself and may pulse a
// signal or change a core's speed (mid-service for whoever is queued).
type foreignEv struct {
	at    time.Duration
	pulse int     // signal to pulse, -1 for none
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

// contScript is one seeded world: several users per core, shared signals,
// and foreign events on the same microsecond grid the costs use, so ties at
// one instant are common.
type contScript struct {
	cores   int
	users   [][]scriptStep
	foreign []foreignEv
}

func genContScript(seed int64) contScript {
	rng := rand.New(rand.NewSource(seed))
	const cores, sigs, steps = 2, 2, 24
	grid := func(max int) time.Duration { return time.Duration(rng.Intn(max+1)) * time.Microsecond }
	sc := contScript{cores: cores}
	for u := 0; u < usersPerCore*cores; u++ {
		var script []scriptStep
		for j := 0; j < steps; j++ {
			switch r := rng.Intn(10); {
			case r < 5:
				d := grid(3) // zero costs included
				if rng.Intn(4) == 0 {
					d += 500 * time.Nanosecond
				}
				script = append(script, scriptStep{kind: stepExec, d: d})
			case r < 8:
				script = append(script, scriptStep{kind: stepWait, sig: rng.Intn(sigs)})
			default:
				script = append(script, scriptStep{kind: stepSleep, d: grid(2)})
			}
		}
		sc.users = append(sc.users, script)
	}
	speeds := []float64{0.25, 0.5, 1, 2}
	for i := 0; i < 120; i++ {
		ev := foreignEv{at: grid(80), pulse: -1, core: -1}
		switch rng.Intn(3) {
		case 0:
			ev.pulse = rng.Intn(sigs)
		case 1:
			ev.core = rng.Intn(cores)
			ev.speed = speeds[rng.Intn(len(speeds))]
		}
		sc.foreign = append(sc.foreign, ev)
	}
	// A closing pulse train so users parked at the end still drain.
	for i := 0; i < 40; i++ {
		sc.foreign = append(sc.foreign, foreignEv{at: 100*time.Microsecond + grid(0) + time.Duration(i)*time.Microsecond, pulse: i % sigs, core: -1})
	}
	return sc
}

// world builds the script's engine, cores, signals and foreign events; the
// caller adds the users in index order.
func (sc contScript) world(seed int64) (*Engine, []*Processor, []*Signal, *[]logRec) {
	eng := NewEngine(seed)
	log := &[]logRec{}
	cores := make([]*Processor, sc.cores)
	for i := range cores {
		cores[i] = NewProcessor(eng, fmt.Sprintf("c%d", i), 1)
	}
	sigs := []*Signal{NewSignal(eng), NewSignal(eng)}
	for i, ev := range sc.foreign {
		i, ev := i, ev
		eng.At(ev.at, func() {
			*log = append(*log, logRec{at: eng.Now(), who: -1 - i})
			if ev.pulse >= 0 {
				sigs[ev.pulse].Pulse()
			}
			if ev.core >= 0 {
				cores[ev.core].SetSpeed(ev.speed)
			}
		})
	}
	return eng, cores, sigs, log
}

// runAsProcs runs every user as a Proc blocking in Exec, Wait and Sleep.
func (sc contScript) runAsProcs(seed int64) ([]logRec, uint64) {
	eng, cores, sigs, log := sc.world(seed)
	defer eng.Stop()
	for u, script := range sc.users {
		u, script, core := u, script, cores[u/usersPerCore]
		eng.Spawn(fmt.Sprintf("u%d", u), func(p *Proc) {
			for j, st := range script {
				switch st.kind {
				case stepExec:
					core.Exec(p, st.d)
				case stepWait:
					sigs[st.sig].Wait(p)
				case stepSleep:
					p.Sleep(st.d)
				}
				*log = append(*log, logRec{at: eng.Now(), who: u, step: j})
			}
		})
	}
	eng.Run()
	return *log, eng.Fired()
}

// contUser is a scripted user as a state machine: each block point is one
// Run, Notify or After whose continuation is the bound stepFn.
type contUser struct {
	eng    *Engine
	core   *Processor
	sigs   []*Signal
	script []scriptStep
	who, j int
	log    *[]logRec
	stepFn func()
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
		cu.sigs[st.sig].Notify(cu.stepFn)
	case stepSleep:
		cu.eng.After(st.d, cu.stepFn)
	}
}

func (cu *contUser) step() {
	*cu.log = append(*cu.log, logRec{at: cu.eng.Now(), who: cu.who, step: cu.j})
	cu.j++
	cu.issue()
}

// runAsContinuations runs every user as a contUser started by one
// Immediate, the event Spawn would have scheduled.
func (sc contScript) runAsContinuations(seed int64) ([]logRec, uint64) {
	eng, cores, sigs, log := sc.world(seed)
	defer eng.Stop()
	for u, script := range sc.users {
		cu := &contUser{eng: eng, core: cores[u/usersPerCore], sigs: sigs, script: script, who: u, log: log}
		cu.stepFn = cu.step
		eng.Immediate(cu.issue)
	}
	eng.Run()
	if eng.Dispatches() != 0 {
		panic("continuation run dispatched a process")
	}
	return *log, eng.Fired()
}

// TestContinuationsMatchProcesses is the equivalence fence for Run and
// Notify: over many seeded scripts — zero and nonzero costs, three users
// per core, foreign events at the same instants, pulses and mid-service speed
// changes — the continuation run logs the same (time, step) sequence and
// fires the same number of events as the process run.
func TestContinuationsMatchProcesses(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sc := genContScript(seed)
		want, wantFired := sc.runAsProcs(seed)
		got, gotFired := sc.runAsContinuations(seed)
		userSteps := 0
		for _, r := range want {
			if r.who >= 0 {
				userSteps++
			}
		}
		if userSteps < len(sc.users) {
			t.Fatalf("seed %d: only %d user steps ran; the script exercises too little", seed, userSteps)
		}
		for i := 0; i < len(want) && i < len(got); i++ {
			if want[i] != got[i] {
				t.Fatalf("seed %d: log diverges at entry %d: process %+v, continuation %+v", seed, i, want[i], got[i])
			}
		}
		if len(want) != len(got) || wantFired != gotFired {
			t.Fatalf("seed %d: process run logged %d entries in %d events, continuation run %d in %d",
				seed, len(want), wantFired, len(got), gotFired)
		}
	}
}

// TestRunZeroCostIsDeferred pins that a continuation never runs inside the
// call that registers it, even for zero-cost work or a Pulse that finds it.
func TestRunZeroCostIsDeferred(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1)
	sig := NewSignal(eng)
	ran := 0
	fn := func() { ran++ }
	eng.At(0, func() {
		c.Run(0, fn)
		sig.Notify(fn)
		sig.Pulse()
		if ran != 0 {
			t.Fatalf("continuation ran synchronously (%d)", ran)
		}
	})
	eng.Run()
	if ran != 2 {
		t.Fatalf("ran %d continuations, want 2", ran)
	}
}

func TestRunOnPSPanics(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessorDisc(eng, "ps", 1, PS)
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a PS core did not panic")
		}
	}()
	c.Run(time.Microsecond, func() {})
}

// TestRunAndNotifyAllocFree pins the steady-state zero-alloc claim: with a
// bound continuation, a Run (queued or immediate) and a Notify plus its
// batched wake allocate nothing once the pools are warm.
func TestRunAndNotifyAllocFree(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	c := NewProcessor(eng, "c", 1)
	sig := NewSignal(eng)
	n := 0
	fn := func() { n++ }
	round := func() {
		c.Run(time.Microsecond, fn)
		c.Run(0, fn)
		c.Run(2*time.Microsecond, fn)
		eng.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("Processor.Run: %.1f allocs per round, want 0", allocs)
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
}

// TestDispatchesCountsHandoffs pins Dispatches: one for a process's start
// and one per resume, none for callbacks.
func TestDispatchesCountsHandoffs(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Stop()
	eng.Spawn("p", func(p *Proc) {
		p.Sleep(time.Microsecond)
		p.Sleep(time.Microsecond)
	})
	eng.After(time.Microsecond, func() {})
	eng.Run()
	if got := eng.Dispatches(); got != 3 {
		t.Fatalf("dispatches = %d, want 3 (start + two resumes)", got)
	}
}
