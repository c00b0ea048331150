package experiments

import (
	"bytes"
	"testing"
	"time"
)

// resOpts is the fixed-seed quick configuration used by the shape tests.
var resOpts = Opts{Quick: true, Seed: 7}

// TestResStormShape asserts the goodput-under-faults contract: the storm
// visibly bites (fabric drops, QP repairs, a goodput dip), yet goodput
// returns to >= 95% of the pre-storm baseline after the faults clear and
// every in-flight buffer is reclaimed.
func TestResStormShape(t *testing.T) {
	res := ResStorm(resOpts)
	control, storm := res[0], res[1]
	if control.Faulted || !storm.Faulted {
		t.Fatal("result order wrong: want [control, storm]")
	}
	if control.Drops != 0 || control.Applied != 0 {
		t.Fatalf("control run saw faults: %d drops, %d applied", control.Drops, control.Applied)
	}
	if storm.Applied == 0 || storm.Drops == 0 {
		t.Fatalf("storm did not bite: applied=%d drops=%d", storm.Applied, storm.Drops)
	}
	if storm.Repairs == 0 {
		t.Fatal("forced QP errors were never repaired")
	}
	if storm.Storm >= storm.Baseline {
		t.Fatalf("no goodput dip during the storm: %.0f >= %.0f", storm.Storm, storm.Baseline)
	}
	// The recovery contract is checked inside runResStorm (sustained return
	// to within 5% of baseline in the final quarter) — the verdict replaces
	// the old hand-rolled Ratio check.
	for _, r := range res {
		if len(r.Violations) != 0 {
			t.Fatalf("SLO violations (faulted=%v): %v", r.Faulted, r.Violations)
		}
	}
	if storm.RetryDrops != 0 {
		t.Fatalf("%d descriptors exhausted the retry budget under sub-horizon outages", storm.RetryDrops)
	}
	for _, r := range res {
		if r.LeakA != 0 || r.LeakB != 0 {
			t.Fatalf("buffer leak (faulted=%v): A=%d B=%d", r.Faulted, r.LeakA, r.LeakB)
		}
	}
}

// TestResRecoveryShape asserts that goodput returns to within 5% of the
// pre-fault baseline after each partition heals, quickly and without leaks.
func TestResRecoveryShape(t *testing.T) {
	for _, r := range ResRecovery(resOpts) {
		if r.Drops == 0 {
			t.Fatalf("%s: partition dropped nothing", r.Label)
		}
		if !r.Recovered {
			t.Fatalf("%s: goodput never returned to baseline", r.Label)
		}
		// Surviving QPs carry traffic the moment the partition heals;
		// recovery must not wait out a full QP re-handshake (25ms).
		if r.RecoveryTime > 20*time.Millisecond {
			t.Fatalf("%s: recovery took %v, want < 20ms", r.Label, r.RecoveryTime)
		}
		if r.PostHeal < 0.95*r.Baseline {
			t.Fatalf("%s: post-heal rate %.0f below 95%% of baseline %.0f", r.Label, r.PostHeal, r.Baseline)
		}
		if r.LeakA != 0 || r.LeakB != 0 {
			t.Fatalf("%s: buffer leak A=%d B=%d", r.Label, r.LeakA, r.LeakB)
		}
	}
}

// TestResTenantShape asserts the isolation contract: while the co-tenant's
// QPs are error-flushed, DWRR keeps the healthy tenant within 10% of its
// pre-storm share, and beats FCFS at it.
func TestResTenantShape(t *testing.T) {
	res := ResTenant(resOpts)
	fcfs, dwrr := res[0], res[1]
	if dwrr.Retention < 0.9 {
		t.Fatalf("DWRR healthy retention %.2f under co-tenant storm, want >= 0.9", dwrr.Retention)
	}
	if dwrr.HealthyStorm <= fcfs.HealthyStorm {
		t.Fatalf("DWRR healthy rate %.0f not above FCFS %.0f during the storm",
			dwrr.HealthyStorm, fcfs.HealthyStorm)
	}
	if dwrr.Repairs == 0 {
		t.Fatal("stormed co-tenant QPs were never repaired")
	}
	for _, r := range res {
		if r.LeakHealthyA+r.LeakHealthyB+r.LeakNoisyA+r.LeakNoisyB != 0 {
			t.Fatalf("%v: buffer leak healthy=%d/%d noisy=%d/%d", r.Sched,
				r.LeakHealthyA, r.LeakHealthyB, r.LeakNoisyA, r.LeakNoisyB)
		}
	}
}

// renderResilience prints the three res-* tables for a given Opts.
func renderResilience(o Opts) []byte {
	var buf bytes.Buffer
	for _, e := range Resilience() {
		for _, tb := range e.Run(o) {
			tb.Print(&buf)
		}
	}
	return buf.Bytes()
}

// TestResilienceDeterminism is the res-specific determinism fence (the
// whole-suite TestParallelDeterminism also covers res-*, but skips under
// -short): repeated runs and sequential-vs-parallel execution must be
// bitwise identical for a fixed seed.
func TestResilienceDeterminism(t *testing.T) {
	a := renderResilience(resOpts)
	b := renderResilience(resOpts)
	if !bytes.Equal(a, b) {
		d := firstDiff(a, b)
		t.Fatalf("repeated run diverged at byte %d:\n1st: %q\n2nd: %q", d, excerpt(a, d), excerpt(b, d))
	}
	par := resOpts
	par.Parallel = 4
	c := renderResilience(par)
	if !bytes.Equal(a, c) {
		d := firstDiff(a, c)
		t.Fatalf("parallel run diverged at byte %d:\nseq: %q\npar: %q", d, excerpt(a, d), excerpt(c, d))
	}
}
