package mempool_test

// Property tests that push the pool's ownership rules through the whole
// simulated system: cross-tenant Transfer chains interleaved with chaos
// NodeCrash/QPError faults on a full core.Cluster, checked by the
// simulation fuzzer's invariant registry (which audits every worker and
// ingress pool at event boundaries and requires every buffer home after
// recovery). The in-package tests cover the pool in isolation; these cover
// it under concurrent data-plane load, keeper replenishment, dropped-call
// recovery and QP repair on both ends of every crashed link.

import (
	"testing"
	"testing/quick"
	"time"

	"nadino/internal/simtest"
)

// chaosScenario derives a fuzz scenario from a quick-generated seed and
// forces the ingredients this property needs: an ownership auditor running
// cross-tenant transfers, plus a NodeCrash (the crash@<node> set: both ends
// of every QP the node takes down, ingress included) and a QPError on every
// engine QP of a node, landing mid-window.
func chaosScenario(seed int64) simtest.Scenario {
	sc := simtest.Generate(seed)
	if sc.Transfers < 16 {
		sc.Transfers = 16 + int(seed&31)
	}
	sc.Faults = append(sc.Faults,
		simtest.FaultSpec{
			Kind: simtest.FaultNodeCrash,
			At:   sc.Load / 4,
			For:  2 * time.Millisecond,
			Node: int(seed) % sc.Nodes,
		},
		simtest.FaultSpec{
			Kind:  simtest.FaultQPError,
			At:    sc.Load / 2,
			Node:  int(seed+1) % sc.Nodes,
			Count: 0, // error every QP on the node
		})
	return sc
}

// TestOwnershipThroughChaosProperty: for any seed, a scenario with forced
// crash/QP faults and cross-tenant transfer chains must pass every
// invariant — per-tick pool audits, exclusive-ownership checks on each
// transfer hop, and full buffer conservation once recovery quiesces.
func TestOwnershipThroughChaosProperty(t *testing.T) {
	count := 6
	if testing.Short() {
		count = 2
	}
	f := func(seedRaw uint16) bool {
		res := simtest.Run(chaosScenario(int64(seedRaw)))
		if res.AuditOps == 0 {
			t.Logf("seed %d: auditor starved (pool squeezed all run)", seedRaw)
		}
		if res.Failed() {
			t.Logf("seed %d failed:\n%s", seedRaw, res.Report)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// TestOwnershipChaosDetectsPlantedLeak keeps the property honest: the same
// chaos scenario with the harness's planted leak (one tenant-pool buffer
// taken at load start, never returned) must fail, and on
// buffer-conservation specifically — proving the invariant (not luck) is
// what passes the clean runs.
func TestOwnershipChaosDetectsPlantedLeak(t *testing.T) {
	sc := chaosScenario(7)
	sc.Defect = simtest.DefectLeakBuffer
	res := simtest.Run(sc)
	if !res.Failed() {
		t.Fatalf("planted leak survived chaos scenario:\n%s", res.Report)
	}
	for _, v := range res.Violations {
		if v.Invariant == "buffer-conservation" {
			return
		}
	}
	t.Fatalf("leak not attributed to buffer-conservation:\n%s", res.Report)
}
