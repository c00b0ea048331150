package telemetry

import (
	"strings"
	"testing"
	"time"

	"nadino/internal/sim"
)

// runWatchdog drives one rule over a gauge series named "v" whose i-th
// scrape (1ms period, landing at (i+1)ms) reads vals[i], and returns the
// recorded violations plus how many times OnBreach fired.
func runWatchdog(vals []float64, rule Rule) ([]Violation, int) {
	eng := sim.NewEngine(7)
	reg := NewRegistry()
	reg.Gauge("v", func() float64 {
		i := int(eng.Now()/time.Millisecond) - 1
		return vals[min(max(i, 0), len(vals)-1)]
	})
	sc := reg.Scrape(eng, time.Millisecond)
	w := NewWatchdog()
	w.Add(rule)
	fired := 0
	w.OnBreach = func(Violation) { fired++ }
	w.Attach(sc)
	eng.RunUntil(time.Duration(len(vals))*time.Millisecond + 500*time.Microsecond)
	return w.Violations(), fired
}

// at is the virtual time the i-th sample of runWatchdog lands at.
func at(i int) time.Duration { return time.Duration(i+1) * time.Millisecond }

// dip is 100 everywhere except one three-sample dip to 40 at samples 3..5.
var dip = []float64{100, 100, 100, 40, 40, 40, 100, 100, 100, 100}

// TestWatchdogThreshold covers the rule knobs: sustain, the From window and
// a missing series. Every violation must anchor at its episode's first
// breaching sample and carry that sample's value.
func TestWatchdogThreshold(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []float64
		rule Rule
		want []time.Duration // At of each violation, in firing order
	}{
		{"sustain 2 fires once at dip start", dip,
			Rule{Name: "floor", Series: "v", Op: OpGE, Bound: 50, Sustain: 2}, []time.Duration{at(3)}},
		{"sustain longer than dip tolerates it", dip,
			Rule{Name: "floor", Series: "v", Op: OpGE, Bound: 50, Sustain: 4}, nil},
		{"From window excludes dip", dip,
			Rule{Name: "floor", Series: "v", From: at(6), Op: OpGE, Bound: 50}, nil},
		{"missing series reported once", dip,
			Rule{Name: "ghost", Series: "nope", Op: OpLT, Bound: 1}, []time.Duration{at(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs, fired := runWatchdog(tc.vals, tc.rule)
			checkViolations(t, tc.vals, tc.rule, vs, fired, tc.want)
		})
	}
}

// TestWatchdogThresholdEpisodes checks one violation per breach episode: a
// conforming sample closes the episode and re-arms the rule, and a breach
// shorter than Sustain never fires.
func TestWatchdogThresholdEpisodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []float64
		rule Rule
		want []time.Duration
	}{
		{"two episodes", []float64{1, 9, 9, 1, 1, 9, 9, 9, 1},
			Rule{Name: "ceil", Series: "v", Op: OpLT, Bound: 5, Sustain: 2}, []time.Duration{at(1), at(5)}},
		// Samples 3..5 breach (episode 1), 7 breaches once (sustain not
		// met), 9..10 breach (episode 2).
		{"short breach between episodes", []float64{1, 1, 1, 20, 25, 30, 1, 99, 1, 15, 18},
			Rule{Name: "depth-slo", Series: "v", Op: OpLE, Bound: 10, Sustain: 2}, []time.Duration{at(3), at(9)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs, fired := runWatchdog(tc.vals, tc.rule)
			checkViolations(t, tc.vals, tc.rule, vs, fired, tc.want)
		})
	}
}

func checkViolations(t *testing.T, vals []float64, rule Rule, vs []Violation, fired int, want []time.Duration) {
	t.Helper()
	if len(vs) != len(want) || fired != len(want) {
		t.Fatalf("got %d violations (%d OnBreach calls), want %d: %+v", len(vs), fired, len(want), vs)
	}
	for i, v := range vs {
		if v.At != want[i] || v.Rule != rule.Name || v.Series != rule.Series {
			t.Fatalf("violation %d = %+v, want rule %q on %q at %v", i, v, rule.Name, rule.Series, want[i])
		}
		if rule.Series != "v" {
			if v.Detail != "series not found" {
				t.Fatalf("missing series detail %q", v.Detail)
			}
			continue
		}
		if first := vals[int(v.At/time.Millisecond)-1]; v.Value != first {
			t.Fatalf("violation %d value %g, want episode's first breach %g", i, v.Value, first)
		}
		if !strings.Contains(v.Detail, "consecutive") {
			t.Fatalf("detail missing sustain context: %q", v.Detail)
		}
	}
}
