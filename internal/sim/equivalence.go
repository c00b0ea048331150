package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Scheduler-equivalence oracle: drives the production engine (timing wheel
// + heap hybrid) and a deliberately naive pure-heap reference through the
// same seeded schedule/cancel/re-arm script and requires bit-identical
// firing logs — same IDs, same order, same timestamps. The script is a pure
// function of (seed, step): both runs draw per-step randomness from a
// counter-seeded source, so the first ordering divergence surfaces as a log
// mismatch at exactly the step where the engines disagree. Both run in
// windows (RunUntil) that end at drawn instants, as the simulator's window
// loops do, and log each window's end, so an event left behind past the
// end of its window shows up after the boundary record.
//
// This is the regression fence for the wheel's exactness claim (wheel.go):
// slots bucket, the heap orders, and no cascade or overflow path may
// reorder or re-time an event. simtest registers it as invariant #11, and
// TestWheelHeapEquivalenceProperty sweeps thousands of seeds.

// fireRec is one fired event in an equivalence log, or a window boundary
// (id -1, at the window's end).
type fireRec struct {
	id int
	at time.Duration
}

// eqScheduler abstracts the two engines under test. Handles are opaque to
// the driver; cancel on a fired handle must be a no-op.
type eqScheduler interface {
	now() time.Duration
	schedule(at time.Duration, id int)
	cancel(id int)
	pending() int
	runUntil(t time.Duration) // fire everything due by t, invoking the driver on each event
}

// eqDelays spans every band of the timer queue: sub-tick, level-0 slots,
// each cascade boundary (64^k ticks), level interiors, the top-level
// horizon, and far-future overflow past the wheel entirely.
var eqDelays = []time.Duration{
	0,                                      // current tick (heap), or the same-instant FIFO without jitter
	300 * time.Nanosecond,                  // sub-tick
	1 << wheelShift,                        // exactly one tick (first level-0 slot)
	40 << wheelShift,                       // level-0 interior
	63 << wheelShift,                       // last level-0 slot
	64 << wheelShift,                       // level-0/1 cascade boundary
	1000 << wheelShift,                     // level-1 interior
	(64 * 64) << wheelShift,                // level-1/2 cascade boundary
	20 * time.Millisecond,                  // level-2 interior
	(64 * 64 * 64) << wheelShift,           // level-2/3 cascade boundary
	2 * time.Second,                        // level-3 interior
	(64 * 64 * 64 * 64) << wheelShift,      // level-3/4 cascade boundary
	30 * time.Second,                       // level-4 interior
	(64 * 64 * 64 * 64 * 64) << wheelShift, // level-4/5 cascade boundary
	5 * time.Hour,                          // level-5 interior
	wheelSpan << wheelShift,                // top-level horizon (first overflow tick)
}

// eqDriver replays the seeded script against one scheduler. Both runs build
// identical driver state as long as the firing order matches; the logs are
// the proof.
type eqDriver struct {
	seed    int64
	s       eqScheduler
	log     []fireRec
	live    map[int]time.Duration // pending id -> deadline
	nextID  int
	fires   int
	maxFire int
}

// stepRng returns the per-step random source: a pure function of the seed
// and the global step counter, so both engines draw the same numbers at
// the same logical point.
func (d *eqDriver) stepRng(step int) *rand.Rand {
	return rand.New(rand.NewSource(d.seed*1_000_003 + int64(step)))
}

// scheduleOne books a new event with a delay drawn from the band table
// (with ns jitter so same-slot events carry distinct timestamps), sometimes
// at exactly the current instant, so same-instant FIFO entries interleave
// with heap events due now and give same-instant cancels their victims,
// and sometimes duplicating the previous deadline exactly to force (at,
// seq) ties.
func (d *eqDriver) scheduleOne(rng *rand.Rand, lastAt time.Duration) time.Duration {
	now := d.s.now()
	at := now + eqDelays[rng.Intn(len(eqDelays))] + time.Duration(rng.Intn(2048))
	switch r := rng.Intn(8); {
	case r == 0:
		at = now
	case r <= 2 && lastAt >= now:
		at = lastAt // exact tie: same timestamp, later seq
	}
	id := d.nextID
	d.nextID++
	d.live[id] = at
	d.s.schedule(at, id)
	return at
}

// pickLive returns the lowest live id (deterministic choice), preferring an
// event due at exactly the current instant when sameInstant is set — the
// cancel-vs-same-tick-fire window the wheel widens.
func (d *eqDriver) pickLive(sameInstant bool) (int, bool) {
	best, found := -1, false
	for id, at := range d.live {
		if sameInstant && at != d.s.now() {
			continue
		}
		if !found || id < best {
			best, found = id, true
		}
	}
	return best, found
}

// fired is the callback both schedulers invoke per event. It logs, then
// runs the step's scripted actions: schedule 0-2 new events, maybe cancel
// (preferring a same-instant victim), maybe re-arm (cancel + reschedule).
func (d *eqDriver) fired(id int) {
	d.log = append(d.log, fireRec{id: id, at: d.s.now()})
	delete(d.live, id)
	step := d.fires
	d.fires++
	if d.fires >= d.maxFire {
		return // tape exhausted; let the queue drain
	}
	rng := d.stepRng(step)
	lastAt := time.Duration(-1)
	for n := rng.Intn(3); n > 0; n-- {
		lastAt = d.scheduleOne(rng, lastAt)
	}
	if rng.Intn(3) == 0 {
		if victim, ok := d.pickLive(rng.Intn(2) == 0); ok {
			d.s.cancel(victim)
			delete(d.live, victim)
		}
	}
	if rng.Intn(4) == 0 {
		if victim, ok := d.pickLive(false); ok {
			d.s.cancel(victim)
			delete(d.live, victim)
			d.scheduleOne(rng, d.live[victim])
		}
	}
}

// runEq drives one scheduler through the whole script: seed the queue from
// step -1's randomness, then fire to quiesce, window by window. Window w
// draws its length from step -2-w's randomness; the window cap only stops
// an engine that loses an event from looping forever.
func runEq(seed int64, maxFire int, mk func(d *eqDriver) eqScheduler) *eqDriver {
	d := &eqDriver{seed: seed, live: make(map[int]time.Duration), maxFire: maxFire}
	d.s = mk(d)
	rng := d.stepRng(-1)
	last := time.Duration(-1)
	for i := 8 + rng.Intn(25); i > 0; i-- {
		last = d.scheduleOne(rng, last)
	}
	for w := 0; d.s.pending() > 0 && w < 64*maxFire; w++ {
		rng := d.stepRng(-2 - w)
		d.s.runUntil(d.s.now() + eqDelays[rng.Intn(len(eqDelays))] + time.Duration(rng.Intn(2048)))
		d.log = append(d.log, fireRec{id: -1, at: d.s.now()})
	}
	return d
}

// ---- production-engine adapter ----

type eqEngine struct {
	d       *eqDriver
	eng     *Engine
	handles map[int]Event
}

func (a *eqEngine) now() time.Duration { return a.eng.Now() }
func (a *eqEngine) schedule(at time.Duration, id int) {
	a.handles[id] = a.eng.At(at, func() {
		delete(a.handles, id)
		a.d.fired(id)
	})
}
func (a *eqEngine) cancel(id int) {
	if h, ok := a.handles[id]; ok {
		h.Cancel()
		delete(a.handles, id)
	}
}
func (a *eqEngine) pending() int             { return a.eng.Pending() }
func (a *eqEngine) runUntil(t time.Duration) { a.eng.RunUntil(t) }

// ---- pure-heap reference ----

// refEvent is one entry in the reference scheduler's naive priority queue.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// refSched is the oracle: an unindexed slice with linear-scan min
// extraction, ordered on (at, seq) exactly as the engine documents. Slow
// and obviously correct.
type refSched struct {
	d     *eqDriver
	t     time.Duration
	seq   uint64
	queue []refEvent
}

func (r *refSched) now() time.Duration { return r.t }
func (r *refSched) schedule(at time.Duration, id int) {
	r.seq++
	r.queue = append(r.queue, refEvent{at: at, seq: r.seq, id: id})
}
func (r *refSched) cancel(id int) {
	for i := range r.queue {
		if r.queue[i].id == id {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
}
func (r *refSched) pending() int { return len(r.queue) }
func (r *refSched) runUntil(t time.Duration) {
	for len(r.queue) > 0 {
		min := 0
		for i := 1; i < len(r.queue); i++ {
			if e, m := r.queue[i], r.queue[min]; e.at < m.at || (e.at == m.at && e.seq < m.seq) {
				min = i
			}
		}
		ev := r.queue[min]
		if ev.at > t {
			break
		}
		r.queue = append(r.queue[:min], r.queue[min+1:]...)
		r.t = ev.at
		r.d.fired(ev.id)
	}
	if r.t < t {
		r.t = t
	}
}

// CheckEquivalence runs the seeded script on both the production engine and
// the pure-heap reference and returns an error describing the first
// divergence in their firing logs (nil if they match exactly). maxFire
// bounds the script length; the tails drain fully, so far-future and
// overflow events are compared too.
func CheckEquivalence(seed int64, maxFire int) error {
	real := runEq(seed, maxFire, func(d *eqDriver) eqScheduler {
		return &eqEngine{d: d, eng: NewEngine(seed), handles: make(map[int]Event)}
	})
	ref := runEq(seed, maxFire, func(d *eqDriver) eqScheduler {
		return &refSched{d: d}
	})
	if len(real.log) != len(ref.log) {
		return fmt.Errorf("sim: equivalence seed %d: engine fired %d events, reference %d",
			seed, len(real.log), len(ref.log))
	}
	for i := range real.log {
		if real.log[i] != ref.log[i] {
			return fmt.Errorf("sim: equivalence seed %d: divergence at fire %d: engine (id=%d at=%v), reference (id=%d at=%v)",
				seed, i, real.log[i].id, real.log[i].at, ref.log[i].id, ref.log[i].at)
		}
	}
	return nil
}
