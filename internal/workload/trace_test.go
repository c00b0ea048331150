package workload

import (
	"math"
	"testing"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/sim"
)

// playTrace drives g on eng and counts the arrivals per chain.
func playTrace(eng *sim.Engine, g *TraceGen) map[string]uint64 {
	counts := make(map[string]uint64)
	(&Driver{Trace: g}).Start(eng, func(chain string, _, _ int, _ time.Duration, _ func(ingress.Response)) {
		counts[chain]++
	})
	return counts
}

func TestTraceZipfPopularity(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	g := &TraceGen{
		Chains:  []string{"a", "b", "c", "d"},
		ZipfS:   1.0,
		BaseRPS: 20000,
		Period:  time.Second,
	}
	counts := playTrace(eng, g)
	eng.RunUntil(2 * time.Second)
	total := uint64(0)
	for _, v := range counts {
		total += v
	}
	if total < 10000 {
		t.Fatalf("trace produced only %d invocations", total)
	}
	// Zipf s=1 over 4 chains: shares ~ 0.48, 0.24, 0.16, 0.12.
	want := []float64{0.48, 0.24, 0.16, 0.12}
	for i, ch := range g.Chains {
		got := float64(counts[ch]) / float64(total)
		if math.Abs(got-want[i]) > 0.05 {
			t.Errorf("chain %s share %.3f, want ~%.2f", ch, got, want[i])
		}
	}
	// Popularity must be monotone.
	for i := 1; i < len(g.Chains); i++ {
		if counts[g.Chains[i]] > counts[g.Chains[i-1]] {
			t.Errorf("popularity not monotone at %d: %v", i, counts)
		}
	}
}

func TestTraceDiurnalModulation(t *testing.T) {
	eng := sim.NewEngine(2)
	defer eng.Stop()
	g := &TraceGen{
		Chains:           []string{"a"},
		BaseRPS:          10000,
		DiurnalAmplitude: 0.8,
		Period:           time.Second,
	}
	counts := playTrace(eng, g)
	// Peak quarter [T/8, 3T/8] vs trough quarter [5T/8, 7T/8].
	eng.RunUntil(time.Second / 8)
	c0 := counts["a"]
	eng.RunUntil(3 * time.Second / 8)
	peak := counts["a"] - c0
	eng.RunUntil(5 * time.Second / 8)
	c1 := counts["a"]
	eng.RunUntil(7 * time.Second / 8)
	trough := counts["a"] - c1
	if peak < trough*2 {
		t.Fatalf("diurnal peak (%d) not well above trough (%d)", peak, trough)
	}
	if got := g.Rate(time.Second / 4); math.Abs(got-18000) > 100 {
		t.Fatalf("peak rate = %v, want ~18000", got)
	}
}

// TestTraceSubmitHook checks what the driver hands its submit function
// for trace arrivals: the trace's chain, sequence-numbered clients and no
// speculation overrides.
func TestTraceSubmitHook(t *testing.T) {
	eng := sim.NewEngine(3)
	defer eng.Stop()
	g := &TraceGen{Chains: []string{"x"}, BaseRPS: 1000, Period: time.Second}
	var seen int
	(&Driver{Trace: g}).Start(eng, func(chain string, client, clone int, hedge time.Duration, reply func(ingress.Response)) {
		if chain != "x" || client != seen || clone != 0 || hedge != 0 || reply != nil {
			t.Errorf("arrival %d: submit(%q, %d, %d, %v, reply=%v)", seen, chain, client, clone, hedge, reply != nil)
		}
		seen++
	})
	eng.RunUntil(100 * time.Millisecond)
	if seen < 50 {
		t.Fatalf("submit saw only %d invocations", seen)
	}
}

func TestTraceUniformWhenUnskewed(t *testing.T) {
	eng := sim.NewEngine(4)
	defer eng.Stop()
	g := &TraceGen{Chains: []string{"a", "b"}, ZipfS: 0, BaseRPS: 20000, Period: time.Second}
	counts := playTrace(eng, g)
	eng.RunUntil(time.Second)
	a, b := float64(counts["a"]), float64(counts["b"])
	if ratio := a / b; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("unskewed trace not uniform: %v vs %v", a, b)
	}
}
