package core

import (
	"testing"
	"time"

	"nadino/internal/sim"
	"nadino/internal/speculate"
	"nadino/internal/workload"
)

// runSpecLoad drives n closed-loop clients against a cluster with the given
// speculation policy and discipline, returning the cluster after dur.
func runSpecLoad(t *testing.T, pol speculate.Policy, ps bool, n int, dur time.Duration) *Cluster {
	t.Helper()
	cfg := testConfig(NadinoDNE)
	cfg.Speculate = pol
	cfg.PSCores = ps
	c := NewCluster(cfg)
	t.Cleanup(c.Eng.Stop)
	closedLoop(c, n)
	c.Eng.RunUntil(dur)
	return c
}

// TestSpeculationCompletesOnce is the cluster-level exactly-once check: with
// clone factor 3 every request still completes exactly once at the client,
// groups resolve exactly once, and all loser arms are accounted as cancels
// or mid-plane kills.
func TestSpeculationCompletesOnce(t *testing.T) {
	c := runSpecLoad(t, speculate.Policy{CloneN: 3}, false, 4, 300*time.Millisecond)
	done := c.Completed.Total()
	if done < 50 {
		t.Fatalf("completed only %d requests", done)
	}
	sp := c.Gateway().Spec()
	if sp == nil {
		t.Fatal("gateway has no speculation controller")
	}
	st := sp.Stats()
	if st.Launched == 0 || st.Clones == 0 {
		t.Fatalf("stats %+v: no clones launched", st)
	}
	// A group wins at the ingress boundary; the client completion lands an
	// external-network delay later, so at cutoff wins may lead completions
	// by at most the number of in-flight clients.
	if st.Wins() < done || st.Wins() > done+4 {
		t.Fatalf("wins %d vs completions %d: groups must resolve exactly once", st.Wins(), done)
	}
	// Every fired arm either won, was suppressed at the boundary, or was
	// killed mid-plane; in-flight arms at cutoff make <= not ==.
	if st.Cancels+st.Kills+st.Wins() > st.Arms {
		t.Fatalf("stats %+v: more resolutions than arms", st)
	}
	if st.Kills == 0 && st.Cancels == 0 {
		t.Fatalf("stats %+v: cloning never cancelled a loser", st)
	}
}

// specConservationRun drives a fixed request count to completion and drain,
// returning per-node pool in-use counts (steady-state RQ postings included).
func specConservationRun(t *testing.T, pol speculate.Policy) (*Cluster, []int) {
	t.Helper()
	cfg := testConfig(NadinoDNE)
	cfg.Speculate = pol
	c := NewCluster(cfg)
	t.Cleanup(c.Eng.Stop)
	const reqs = 200
	d := &workload.Driver{Chains: []string{"mix"}, Clients: 1, Requests: reqs, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	// Run well past the last completion so every loser has died and
	// returned its buffer.
	c.Eng.RunUntil(3 * time.Second)
	if got := c.Completed.Total(); got != reqs {
		t.Fatalf("completed %d, want %d", got, reqs)
	}
	inuse := make([]int, 0, len(c.cfg.Nodes))
	for _, node := range c.cfg.Nodes {
		inuse = append(inuse, c.nodes[node].pool(c.cfg.Tenant).InUse())
	}
	return c, inuse
}

// TestSpeculationConservesBuffers checks that cancelled clones return their
// pool buffers: after a drained run the tenant pools hold exactly what an
// identical unspeculated run holds (the steady-state receive postings).
func TestSpeculationConservesBuffers(t *testing.T) {
	_, base := specConservationRun(t, speculate.Policy{})
	c, spec := specConservationRun(t, speculate.Policy{CloneN: 3, Hedge: true, HedgeMin: 50 * time.Microsecond})
	for i, node := range c.cfg.Nodes {
		if spec[i] != base[i] {
			t.Fatalf("node %s: %d buffers in use with speculation, %d without — clones leak",
				node, spec[i], base[i])
		}
	}
	sp := c.Gateway().Spec()
	if sp.Stats().Kills == 0 {
		t.Fatalf("stats %+v: no mid-plane kills exercised", sp.Stats())
	}
	if sp.PendingHedges() != 0 {
		t.Fatalf("%d hedge timers still armed after drain", sp.PendingHedges())
	}
}

// TestHedgingEndToEnd drives a hedged (no-clone) cluster and checks hedge
// arms fire and win occasionally without breaking exactly-once.
func TestHedgingEndToEnd(t *testing.T) {
	c := runSpecLoad(t, speculate.Policy{CloneN: 1, Hedge: true, HedgeMin: 10 * time.Microsecond}, false,
		8, 300*time.Millisecond)
	st := c.Gateway().Spec().Stats()
	if st.Hedges == 0 {
		t.Fatalf("stats %+v: no hedges fired despite a 10µs floor", st)
	}
	if st.Wins() != c.Completed.Total() {
		t.Fatalf("wins %d != completions %d", st.Wins(), c.Completed.Total())
	}
}

// TestPSClusterServes runs the whole cluster with processor-sharing function
// cores and checks it still serves, with completions near the FCFS run (PS
// changes latency shape, not conservation).
func TestPSClusterServes(t *testing.T) {
	ps := runSpecLoad(t, speculate.Policy{}, true, 8, 300*time.Millisecond)
	if ps.Completed.Total() < 50 {
		t.Fatalf("PS cluster completed only %d requests", ps.Completed.Total())
	}
	for _, f := range ps.fnSeq {
		if f.core.Discipline() != sim.PS {
			t.Fatalf("function %s core is %v, want PS", f.name, f.core.Discipline())
		}
	}
	fcfs := runSpecLoad(t, speculate.Policy{}, false, 8, 300*time.Millisecond)
	lo, hi := ps.Completed.Total(), fcfs.Completed.Total()
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo*2 < hi {
		t.Fatalf("PS (%d) and FCFS (%d) throughput differ wildly", ps.Completed.Total(), fcfs.Completed.Total())
	}
}

// TestSpecDeterminism: same seed, same speculation config => identical
// completion counts and spec stats.
func TestSpecDeterminism(t *testing.T) {
	pol := speculate.Policy{CloneN: 2, Hedge: true, HedgeMin: 20 * time.Microsecond}
	a := runSpecLoad(t, pol, true, 6, 200*time.Millisecond)
	b := runSpecLoad(t, pol, true, 6, 200*time.Millisecond)
	if a.Completed.Total() != b.Completed.Total() {
		t.Fatalf("completions diverge: %d vs %d", a.Completed.Total(), b.Completed.Total())
	}
	sa, sb := a.Gateway().Spec().Stats(), b.Gateway().Spec().Stats()
	if sa != sb {
		t.Fatalf("spec stats diverge:\n%+v\n%+v", sa, sb)
	}
}
