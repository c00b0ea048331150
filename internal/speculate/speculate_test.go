package speculate

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"nadino/internal/sim"
)

func TestCloneFirstCompleteWins(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	s := New(eng, Policy{CloneN: 3})
	var fired []int
	g := s.Launch("echo", 0, -1, func(g *Group, arm int) bool {
		fired = append(fired, arm)
		return true
	})
	if len(fired) != 3 || g.Arms() != 3 {
		t.Fatalf("fired arms %v (count %d), want [0 1 2]", fired, g.Arms())
	}
	if g.Won() {
		t.Fatal("group won before any completion")
	}
	if !g.Finish(2) {
		t.Fatal("first completion must win")
	}
	if g.Finish(0) || g.Finish(1) {
		t.Fatal("loser completions must be suppressed")
	}
	st := s.Stats()
	if st.Launched != 1 || st.Arms != 3 || st.Clones != 2 {
		t.Fatalf("stats %+v: want 1 launched, 3 arms, 2 clones", st)
	}
	if st.WinClone != 1 || st.WinPrimary != 0 || st.Cancels != 2 {
		t.Fatalf("stats %+v: want clone win and 2 cancels", st)
	}
	if g.WonArm() != 2 {
		t.Fatalf("winning arm %d, want 2", g.WonArm())
	}
}

func TestFailedArmDoesNotCount(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	s := New(eng, Policy{CloneN: 3})
	g := s.Launch("echo", 0, -1, func(g *Group, arm int) bool { return arm != 1 })
	if g.Arms() != 2 {
		t.Fatalf("arms %d, want 2 (arm 1 failed to issue)", g.Arms())
	}
	if s.Stats().Clones != 1 {
		t.Fatalf("clones %d, want 1", s.Stats().Clones)
	}
}

func TestHedgeFiresAfterDeadline(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	s := New(eng, Policy{CloneN: 1, Hedge: true, HedgeMin: 100 * time.Microsecond})
	var firedAt []time.Duration
	g := s.Launch("echo", 0, -1, func(g *Group, arm int) bool {
		firedAt = append(firedAt, eng.Now())
		return true
	})
	if s.PendingHedges() != 1 {
		t.Fatalf("pending hedges %d, want 1", s.PendingHedges())
	}
	eng.RunUntil(time.Millisecond)
	if len(firedAt) != 2 || firedAt[1] != 100*time.Microsecond {
		t.Fatalf("arm fire times %v, want hedge at 100µs", firedAt)
	}
	if g.Arms() != 2 || s.Stats().Hedges != 1 {
		t.Fatalf("arms=%d hedges=%d, want 2 and 1", g.Arms(), s.Stats().Hedges)
	}
	if s.PendingHedges() != 0 {
		t.Fatalf("pending hedges %d after fire, want 0", s.PendingHedges())
	}
	if !g.Finish(1) {
		t.Fatal("hedge completion must win")
	}
	if s.Stats().WinHedge != 1 {
		t.Fatalf("stats %+v: want a hedge win", s.Stats())
	}
}

func TestWinCancelsHedgeTimer(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	s := New(eng, Policy{CloneN: 1, Hedge: true, HedgeMin: 100 * time.Microsecond})
	fires := 0
	g := s.Launch("echo", 0, -1, func(g *Group, arm int) bool { fires++; return true })
	eng.At(10*time.Microsecond, func() {
		if !g.Finish(0) {
			t.Fatal("primary completion must win")
		}
	})
	eng.RunUntil(time.Millisecond)
	if fires != 1 {
		t.Fatalf("%d arms fired, want 1 (hedge cancelled by the win)", fires)
	}
	if s.PendingHedges() != 0 || s.Stats().LateFires != 0 {
		t.Fatalf("pending=%d late=%d after cancelled hedge, want 0/0",
			s.PendingHedges(), s.Stats().LateFires)
	}
}

func TestHedgeDeadlineTracksP95(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	s := New(eng, Policy{CloneN: 1, Hedge: true, HedgeMin: 10 * time.Microsecond})
	if d := s.Deadline("echo"); d != 10*time.Microsecond {
		t.Fatalf("cold deadline %v, want the HedgeMin floor", d)
	}
	tr := s.Tracker("echo")
	for i := 1; i <= 100; i++ {
		tr.Observe(time.Duration(i) * time.Microsecond)
	}
	// Window 64 holds 37..100µs; P95 lands near the top of that range.
	d := s.Deadline("echo")
	if d < 90*time.Microsecond || d > 100*time.Microsecond {
		t.Fatalf("rolling deadline %v, want ~P95 of the window (90..100µs)", d)
	}
}

func TestPerRequestOverrides(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	s := New(eng, Policy{CloneN: 1})
	fires := 0
	g := s.Launch("echo", 3, 50*time.Microsecond, func(g *Group, arm int) bool { fires++; return true })
	if fires != 3 || g.Arms() != 3 {
		t.Fatalf("clone override fired %d arms, want 3", fires)
	}
	if s.PendingHedges() != 1 {
		t.Fatal("hedge override must arm a timer")
	}
	eng.RunUntil(time.Millisecond)
	if g.Arms() != 4 {
		t.Fatalf("arms %d after hedge override fired, want 4", g.Arms())
	}
}

func TestTrackerRollingWindow(t *testing.T) {
	tr := NewTracker(4)
	for _, v := range []time.Duration{100, 200, 300, 400, 500} {
		tr.Observe(v * time.Microsecond)
	}
	if tr.Count() != 4 {
		t.Fatalf("count %d, want the window size 4", tr.Count())
	}
	// Window now holds 200..500µs; P95 index covers the max.
	if got := tr.P95(); got != 500*time.Microsecond {
		t.Fatalf("P95 %v, want 500µs", got)
	}
}

// TestTrackerSortedWindowProperty holds the sorted window to its
// definition: over random sequences with ties and windows of 1 to 64, after
// every Observe the sorted copy is the sort of the ring and P95 is its
// order statistic, and neither Observe nor P95 allocates.
func TestTrackerSortedWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		window := 1 + rng.Intn(64)
		tr := NewTracker(window)
		var ring []time.Duration    // the window, oldest first
		spread := 1 + rng.Intn(200) // small spreads force ties
		for step := 0; step < 3*window+rng.Intn(64); step++ {
			d := time.Duration(rng.Intn(spread)) * time.Microsecond
			tr.Observe(d)
			if ring = append(ring, d); len(ring) > window {
				ring = ring[1:]
			}
			want := slices.Clone(ring)
			slices.Sort(want)
			if !slices.Equal(tr.sorted, want) {
				t.Fatalf("window %d step %d: sorted %v, want %v", window, step, tr.sorted, want)
			}
			idx := max((len(want)*95+99)/100-1, 0)
			if got := tr.P95(); got != want[idx] {
				t.Fatalf("window %d step %d: P95 %v, want %v", window, step, got, want[idx])
			}
		}
	}
	tr := NewTracker(64)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		tr.Observe(time.Duration(i*7919%1000) * time.Microsecond)
		_ = tr.P95()
	})
	if allocs != 0 {
		t.Fatalf("Observe+P95 allocate %.1f per call, want 0", allocs)
	}
}

func TestCancelVisible(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	s := New(eng, Policy{CloneN: 2})
	g := s.Launch("echo", 0, -1, func(g *Group, arm int) bool { return true })
	eng.At(10*time.Microsecond, func() { g.Finish(0) })
	eng.At(12*time.Microsecond, func() {
		if g.CancelVisible(5 * time.Microsecond) {
			t.Fatal("cancel visible before the propagation delay elapsed")
		}
	})
	eng.At(20*time.Microsecond, func() {
		if !g.CancelVisible(5 * time.Microsecond) {
			t.Fatal("cancel must be visible after the propagation delay")
		}
	})
	eng.RunUntil(time.Millisecond)
	var nilGroup *Group
	if nilGroup.Won() {
		t.Fatal("nil group must report not-won")
	}
}

// BenchmarkCloneFanout measures the launch/finish cycle at clone factor 3
// with hedging armed — the per-request control-plane cost of speculation.
func BenchmarkCloneFanout(b *testing.B) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	s := New(eng, Policy{CloneN: 3, Hedge: true, HedgeMin: time.Millisecond})
	fire := func(g *Group, arm int) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := s.Launch("bench", 0, -1, fire)
		g.Finish(0)
		g.Finish(1)
		g.Finish(2)
	}
	eng.Run()
}
