package dne

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

var updateKeeperGolden = flag.Bool("update", false, "rewrite testdata/keeper_rounds.golden")

// keeperLog records the core thread's rounds on one engine: each round's
// start instant and number, the buffers it posted per tenant, the QPs its
// shrink deactivated, the repairs it started and the replenish debt it left.
// Deactivations and repairs happen only inside rounds, so the change in
// their pool-wide totals between one round's start and the next round's
// start is what the first round did.
type keeperLog struct {
	e      *Engine
	floor  []int // active QPs per pool when the log attached
	open   bool
	at     time.Duration
	end    time.Duration // where the latest round ended, as far as seen
	round  int
	posted []int
	deact  int
	reps   int
	lines  []string
}

// attachKeeperLog wraps e's keeper continuations. Call it right after
// e.Start, before the initial round's event fires.
func attachKeeperLog(e *Engine) *keeperLog {
	l := &keeperLog{e: e, posted: make([]int, len(e.tenantSeq))}
	for _, cp := range e.poolSeq {
		l.floor = append(l.floor, cp.ActiveCount())
	}
	k := &e.k
	tick, posted := k.tickFn, k.postedFn
	k.tickFn = func() {
		l.begin(e.k.round + 1)
		tick()
	}
	k.postedFn = func() {
		l.posted[k.ts.id] += k.posted
		l.end = e.eng.Now()
		posted()
	}
	l.begin(0) // the initial round, which keeperStart runs at this instant
	return l
}

func (l *keeperLog) deactivations() int {
	n := 0
	for i, cp := range l.e.poolSeq {
		n += l.floor[i] + int(cp.Activations()) - cp.ActiveCount()
	}
	return n
}

func (l *keeperLog) repairs() int {
	n := 0
	for _, cp := range l.e.poolSeq {
		n += int(cp.Repairs())
	}
	return n
}

func (l *keeperLog) begin(round int) {
	l.close()
	l.open = true
	l.at, l.end, l.round = l.e.eng.Now(), l.e.eng.Now(), round
	for i := range l.posted {
		l.posted[i] = 0
	}
	l.deact, l.reps = l.deactivations(), l.repairs()
}

// close writes the open round's line if the round did anything.
func (l *keeperLog) close() {
	if !l.open {
		return
	}
	l.open = false
	deact, reps := l.deactivations()-l.deact, l.repairs()-l.reps
	work := deact != 0 || reps != 0
	var posted, debt []string
	for i, ts := range l.e.tenantSeq {
		work = work || l.posted[i] != 0 || ts.rqDebt != 0
		posted = append(posted, fmt.Sprintf("%s:%d", ts.name, l.posted[i]))
		debt = append(debt, fmt.Sprintf("%s:%d", ts.name, ts.rqDebt))
	}
	if !work {
		return
	}
	l.lines = append(l.lines, fmt.Sprintf("t=%d round=%d posted=%s deactivated=%d repairs=%d debt=%s",
		l.at, l.round, strings.Join(posted, ","), deact, reps, strings.Join(debt, ",")))
}

// keeperWorld is two nodes with an engine each and two tenants; the test
// scripts raw RC sends between them and records engine A's keeper.
type keeperWorld struct {
	eng    *sim.Engine
	p      *params.Params
	ea, eb *Engine
	log    *keeperLog
	// landed holds the instants at which A's CQ went from empty to
	// non-empty; in the receive phases every such push is a receive.
	landed []time.Duration
}

var keeperTenants = []string{"t1", "t2"}

func newKeeperWorld(t *testing.T) *keeperWorld {
	t.Helper()
	p := params.Default()
	eng := sim.NewEngine(5)
	t.Cleanup(eng.Stop)
	net := fabric.New(eng, p)
	dA := dpu.New(eng, p, "nodeA", net)
	dB := dpu.New(eng, p, "nodeB", net)
	w := &keeperWorld{
		eng: eng,
		p:   p,
		ea:  New(eng, p, Config{Node: "nodeA", InitialRQ: 32}, dA, nil, nil),
		eb:  New(eng, p, Config{Node: "nodeB", InitialRQ: 32}, dB, nil, nil),
	}
	for _, ts := range keeperTenants {
		w.ea.AddTenant(ts, mempool.NewPool(ts, 4096, 256, p.HugepageSize), 1)
		w.eb.AddTenant(ts, mempool.NewPool(ts, 4096, 256, p.HugepageSize), 1)
		// Sinks that are never drained: a landed buffer stays with its
		// function, so only the keeper returns buffers to the SRQs.
		w.ea.AttachFunction("sink-"+ts, ts)
		w.eb.AttachFunction("sink-"+ts, ts)
	}
	w.ea.CQ().SetNotify(func() {
		w.landed = append(w.landed, eng.Now())
		w.ea.work.Pulse()
	})
	left := len(keeperTenants)
	for _, ts := range keeperTenants {
		ts := ts
		eng.Immediate(func() {
			rdma.EstablishPair(eng, p, ts, dA.RNIC(), dB.RNIC(), 4,
				w.ea.SRQ(ts), w.eb.SRQ(ts), w.ea.CQ(), w.eb.CQ(), func(cpA, cpB *rdma.ConnPool) {
					w.ea.AddConnPool("nodeB", ts, cpA)
					w.eb.AddConnPool("nodeA", ts, cpB)
					if left--; left == 0 {
						w.ea.Start()
						w.log = attachKeeperLog(w.ea)
						w.eb.Start()
					}
				})
		})
	}
	return w
}

// send posts one raw two-sided send of tenant ts from engine from to the
// other node's sink, as the engine's TX stage would after routing: the
// source buffer is engine-owned, so its completion recycles it.
func (w *keeperWorld) send(from *Engine, ts string) {
	peer := fabric.NodeID("nodeB")
	if from == w.eb {
		peer = "nodeA"
	}
	st := from.tenants[ts]
	buf, err := st.pool.Get(from.engOwner)
	if err != nil {
		panic(err)
	}
	d := mempool.Descriptor{Tenant: ts, TenantID: st.id + 1, Buf: buf, Len: 512,
		Msg: &mempool.Msg{Src: "test", Dst: "sink-" + ts}}
	from.ConnPool(peer, ts).Pick().PostSend(d)
}

// at runs fn at absolute instant t.
func (w *keeperWorld) at(t time.Duration, fn func()) { w.eng.At(t, fn) }

// TestKeeperRoundsGolden scripts one engine's life — receives between the
// keeper's round instants and one exactly on a round instant, an idle
// stretch across three shrink rounds, a shadow QP activated and then left
// idle across a shrink round, a forced QP error, and a pool squeeze that
// leaves replenish debt until the buffers return — and holds every round
// that did work to testdata/keeper_rounds.golden.
func TestKeeperRoundsGolden(t *testing.T) {
	w := newKeeperWorld(t)
	every := 50 * time.Microsecond // Config.ReplenishEvery's default
	start := w.p.QPSetupTime       // the pools come up, the engines start
	us := func(n float64) time.Duration { return start + time.Duration(n*float64(time.Microsecond)) }

	// Receives between round instants. The second send on t1's QP (warm in
	// both RNICs' caches by then) calibrates the post-to-land latency.
	w.at(us(1000), func() { w.send(w.eb, "t1") })
	var calPost time.Duration
	w.at(us(1200.011), func() { calPost = w.eng.Now(); w.send(w.eb, "t1") })
	w.at(us(1317.4), func() { w.send(w.eb, "t2") })
	w.at(us(1500.2), func() { w.send(w.eb, "t2") })
	w.at(us(1733.9), func() { w.send(w.eb, "t1") })
	w.eng.RunUntil(us(2900))
	if len(w.landed) != 5 {
		t.Fatalf("phase A: %d receive pushes, want 5", len(w.landed))
	}
	lat := w.landed[1] - calPost

	// One receive that lands exactly on a round instant: the first on the
	// grid of the last round's end at least 200 µs out.
	from := w.eng.Now() + 200*time.Microsecond
	grid := w.log.end + (from-w.log.end+every-1)/every*every
	w.at(grid-lat, func() { w.send(w.eb, "t1") })
	w.eng.RunUntil(us(3500))
	if len(w.landed) != 6 || w.landed[5] != grid {
		t.Fatalf("phase B: receive pushes %v, want the sixth at the round instant %v", w.landed, grid)
	}

	// Idle stretch: more than 300 rounds with nothing to do. Both keepers
	// sleep, so nothing is queued and no event fires.
	w.eng.RunUntil(us(4000))
	fired := w.eng.Fired()
	for _, until := range []float64{4050, 10000, 25000} {
		w.eng.RunUntil(us(until))
		if n := w.eng.Pending(); n != 0 {
			t.Fatalf("idle at %v: %d events queued, want none", w.eng.Now(), n)
		}
	}
	if n := w.eng.Fired() - fired; n != 0 {
		t.Fatalf("idle stretch fired %d events, want none", n)
	}

	// A burst of nine sends from A on t1: the ninth Pick finds the active
	// QP congested and activates a shadow, which is idle again long before
	// the next shrink round.
	w.at(us(26000.3), func() {
		for i := 0; i < 9; i++ {
			w.send(w.ea, "t1")
		}
	})
	w.eng.RunUntil(us(34000))
	if got := w.ea.ConnPool("nodeB", "t1").Activations(); got != 1 {
		t.Fatalf("burst activated %d shadow QPs, want 1", got)
	}

	// A forced QP error between round instants.
	w.at(us(34017.3), func() { w.ea.ConnPool("nodeB", "t2").ForceError(1) })

	// Squeeze t2's pool on A, land three receives on it, then return the
	// buffers: the keeper carries the shortfall as debt and repays it.
	var held []mempool.Buffer
	pool := w.ea.tenants["t2"].pool
	w.at(us(36000.7), func() {
		for {
			b, err := pool.Get("hog")
			if err != nil {
				break
			}
			held = append(held, b)
		}
	})
	w.at(us(36100.1), func() { w.send(w.eb, "t2") })
	w.at(us(36250.6), func() { w.send(w.eb, "t2") })
	w.at(us(36251.2), func() { w.send(w.eb, "t2") })
	w.at(us(36600.9), func() {
		for _, b := range held {
			if err := pool.Put(b, "hog"); err != nil {
				t.Error(err)
			}
		}
	})
	w.eng.RunUntil(us(45000))
	w.log.close()

	got := strings.Join(w.log.lines, "\n") + "\n"
	path := filepath.Join("testdata", "keeper_rounds.golden")
	if *updateKeeperGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Fatalf("keeper rounds differ from %s:\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff reports the first differing line of two texts.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b string
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, a, b)
		}
	}
	return "(equal)"
}
