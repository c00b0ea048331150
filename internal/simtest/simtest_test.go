package simtest

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"nadino/internal/core"
)

// TestGenerateDeterministic pins the generator as a pure function of seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: scenarios differ:\n%s\n%s", seed, a, b)
		}
		if a.String() != b.String() {
			t.Fatalf("seed %d: descriptions differ", seed)
		}
	}
}

// TestGenerateShape sanity-checks generated scenarios: indices in range,
// loads fully specified, and a config core accepts.
func TestGenerateShape(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		sc := Generate(seed)
		if sc.Nodes < 2 || sc.Nodes > len(nodeNames) {
			t.Fatalf("seed %d: %d nodes", seed, sc.Nodes)
		}
		if len(sc.Tenants) == 0 {
			t.Fatalf("seed %d: no tenants", seed)
		}
		if sc.System != core.NadinoDNE && sc.System != core.NadinoCNE {
			t.Fatalf("seed %d: system %v", seed, sc.System)
		}
		if err := sc.Config().Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, ts := range sc.Tenants {
			if ts.CliNode >= sc.Nodes || ts.SrvNode >= sc.Nodes || ts.CliNode == ts.SrvNode {
				t.Fatalf("seed %d tenant %s: nodes %d->%d of %d", seed, ts.Name, ts.CliNode, ts.SrvNode, sc.Nodes)
			}
			switch ts.Load {
			case LoadClosed:
				if ts.Clients < 1 {
					t.Fatalf("seed %d tenant %s: closed loop with %d clients", seed, ts.Name, ts.Clients)
				}
			case LoadOpen:
				if ts.Every <= 0 {
					t.Fatalf("seed %d tenant %s: open loop with period %v", seed, ts.Name, ts.Every)
				}
			case LoadPoisson:
				if ts.RPS <= 0 {
					t.Fatalf("seed %d tenant %s: poisson with %f rps", seed, ts.Name, ts.RPS)
				}
			default:
				t.Fatalf("seed %d tenant %s: load %q", seed, ts.Name, ts.Load)
			}
		}
		for _, f := range sc.Faults {
			if f.At < 0 || f.At >= sc.Load {
				t.Fatalf("seed %d: fault %s outside load window %v", seed, f, sc.Load)
			}
		}
	}
}

// TestRunDeterministic requires byte-identical reports for repeated runs of
// the same seed — the contract behind every printed repro command.
func TestRunDeterministic(t *testing.T) {
	seeds := []int64{1, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		a := Run(Generate(seed))
		b := Run(Generate(seed))
		if a.Report != b.Report {
			t.Fatalf("seed %d: reports differ:\n--- first\n%s--- second\n%s", seed, a.Report, b.Report)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("seed %d: fingerprints differ: %x vs %x", seed, a.Fingerprint, b.Fingerprint)
		}
	}
}

// TestSweepClean is the in-repo smoke sweep: a block of generated scenarios
// must pass every invariant.
func TestSweepClean(t *testing.T) {
	n := int64(20)
	if testing.Short() {
		n = 6
	}
	for seed := int64(0); seed < n; seed++ {
		res := Run(Generate(seed))
		if res.Failed() {
			t.Errorf("seed %d failed:\n%s\n%s", seed, res.Report, res.FlightDump)
		}
		if res.FlightDump != "" {
			t.Errorf("seed %d: passing run carries a flight dump", seed)
		}
	}
}

// TestSpeculationSweepClean is invariant #13's seed sweep: every scenario
// runs with cloning and/or hedging forced on, so the speculation-safety
// checker (exactly-once at the boundary, losers returning buffers and
// in-flight state, generation-fenced cancels) sees real clone traffic on
// every seed — including seeds whose own draws add faults, gateways, PS
// serving, or retry storms on top.
func TestSpeculationSweepClean(t *testing.T) {
	n := int64(50)
	if testing.Short() {
		n = 8
	}
	for seed := int64(0); seed < n; seed++ {
		sc := Generate(seed)
		if !sc.Speculative() {
			// Force speculation onto non-speculative seeds, varying the
			// flavor so the sweep covers clone-only, hedge-only, and both.
			switch seed % 3 {
			case 0:
				sc.CloneN = 2 + int(seed%2)
			case 1:
				sc.HedgeAfter = time.Duration(150*(1+seed%3)) * time.Microsecond
			default:
				sc.CloneN = 2
				sc.HedgeAfter = 300 * time.Microsecond
			}
		}
		res := Run(sc)
		if res.Failed() {
			t.Errorf("seed %d (%s) failed:\n%s\n%s", seed, sc, res.Report, res.FlightDump)
		}
		if res.SpecLaunched == 0 {
			t.Errorf("seed %d (%s): speculative scenario launched no groups", seed, sc)
		}
	}
}

// TestSpeculationDeterministic pins a fully-loaded speculative scenario —
// clone=3 with hedging on PS cores, under a slow-core fault — to a
// byte-identical rerun.
func TestSpeculationDeterministic(t *testing.T) {
	sc := Scenario{
		Seed: 77, Nodes: 2, System: core.NadinoDNE,
		Load: 8 * time.Millisecond, Drain: 200 * time.Millisecond,
		CloneN: 3, HedgeAfter: 250 * time.Microsecond, PSServe: true,
		Tenants: []TenantScenario{
			{Name: "amber", Weight: 1, CliNode: 0, SrvNode: 1,
				Load: LoadClosed, Clients: 6, Payload: 512},
			{Name: "basil", Weight: 1, CliNode: 0, SrvNode: 1,
				Load: LoadClosed, Clients: 6, Payload: 512},
		},
		Faults: []FaultSpec{{Kind: FaultSlowCores, At: 2 * time.Millisecond,
			For: 2 * time.Millisecond, Node: 1, Factor: 0.4}},
	}
	res := Run(sc)
	if res.Failed() {
		t.Fatalf("speculative scenario failed:\n%s\n%s", res.Report, res.FlightDump)
	}
	if res.SpecWins == 0 || res.SpecCancels+res.SpecKills == 0 {
		t.Fatalf("speculation never exercised (wins=%d cancels=%d kills=%d):\n%s",
			res.SpecWins, res.SpecCancels, res.SpecKills, res.Report)
	}
	again := Run(sc)
	if again.Report != res.Report || again.Fingerprint != res.Fingerprint {
		t.Fatalf("speculative scenario not deterministic:\n--- first\n%s--- second\n%s",
			res.Report, again.Report)
	}
}

// TestGatewayScenarioForwards pins the gateway tier under the full invariant
// registry: a 3-node scenario whose only tenant spans node0 -> node2 must
// push every cross-node hop through the fabric (Forwarded > 0), survive a
// mid-window partition, and pass all 13 invariants — including
// route-consistency — byte-identically across reruns.
func TestGatewayScenarioForwards(t *testing.T) {
	sc := Scenario{
		Seed: 42, Nodes: 3, System: core.NadinoDNE,
		Load: 10 * time.Millisecond, Drain: 200 * time.Millisecond,
		Gateways: true,
		Tenants: []TenantScenario{{
			Name: "amber", Weight: 1, CliNode: 0, SrvNode: 2,
			Load: LoadClosed, Clients: 8, Payload: 1024,
		}},
		Faults: []FaultSpec{{Kind: FaultPartition, At: 2 * time.Millisecond,
			For: 2 * time.Millisecond, Node: 0}},
	}
	res := Run(sc)
	if res.Failed() {
		t.Fatalf("gateway scenario failed:\n%s", res.Report)
	}
	if res.Forwarded == 0 {
		t.Fatalf("no gateway forwards — cross-node hops bypassed the fabric:\n%s", res.Report)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed:\n%s", res.Report)
	}
	again := Run(sc)
	if again.Report != res.Report || again.Fingerprint != res.Fingerprint {
		t.Fatalf("gateway scenario not deterministic:\n--- first\n%s--- second\n%s", res.Report, again.Report)
	}
}

// TestPlantedLeakCaught proves the registry catches a deliberately-broken
// invariant: a harness double that keeps one response buffer trips
// buffer-conservation, and the shrinker reduces the scenario while the
// minimal case still reproduces byte-identically.
func TestPlantedLeakCaught(t *testing.T) {
	sc := Generate(3)
	sc.Defect = DefectLeakBuffer
	res := Run(sc)
	if !res.Failed() {
		t.Fatalf("planted leak not caught:\n%s", res.Report)
	}
	if !res.violatedNames()["buffer-conservation"] {
		t.Fatalf("leak blamed on the wrong invariant:\n%s", res.Report)
	}

	// Failures carry the flight recorder's tail, with the invariant trip
	// itself marked in the ring; the dump stays out of Report so
	// fingerprints do not depend on recorder coverage.
	if !strings.Contains(res.FlightDump, "flightrec:") ||
		!strings.Contains(res.FlightDump, "invariant") {
		t.Fatalf("failing run has no usable flight dump:\n%q", res.FlightDump)
	}
	if strings.Contains(res.Report, "flightrec:") {
		t.Fatalf("flight dump leaked into the canonical report:\n%s", res.Report)
	}
	if again := Run(sc); again.FlightDump != res.FlightDump {
		t.Fatalf("flight dump not deterministic:\n--- first\n%s--- second\n%s",
			res.FlightDump, again.FlightDump)
	}

	sr := Shrink(sc, res, 30)
	if !sr.MinimalResult.Failed() {
		t.Fatalf("shrinker lost the failure")
	}
	if !sr.MinimalResult.violatedNames()["buffer-conservation"] {
		t.Fatalf("shrinker drifted to a different failure:\n%s", sr.MinimalResult.Report)
	}
	if sr.Minimal.Load > sc.Load/2 && len(sr.Steps) == 0 {
		t.Fatalf("shrinker made no progress: %v", sr.Steps)
	}
	again := Run(sr.Minimal)
	if again.Report != sr.MinimalResult.Report || again.Fingerprint != sr.MinimalResult.Fingerprint {
		t.Fatalf("minimal scenario does not reproduce byte-identically:\n--- shrink\n%s--- rerun\n%s",
			sr.MinimalResult.Report, again.Report)
	}
}

// TestShrinkDropsIrrelevantFaults checks the ddmin pass: a defect that has
// nothing to do with the chaos schedule shrinks to a fault-free scenario.
func TestShrinkDropsIrrelevantFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full simulations")
	}
	var sc Scenario
	found := false
	for seed := int64(0); seed < 100; seed++ {
		sc = Generate(seed)
		if len(sc.Faults) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no faulty scenario in the first 100 seeds")
	}
	sc.Defect = DefectLeakBuffer
	res := Run(sc)
	if !res.Failed() {
		t.Fatalf("planted leak not caught:\n%s", res.Report)
	}
	sr := Shrink(sc, res, 40)
	if len(sr.Minimal.Faults) != 0 {
		t.Fatalf("irrelevant faults survived shrinking: %v", sr.Minimal.Faults)
	}
}
