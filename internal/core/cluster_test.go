package core

import (
	"testing"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/sim"
)

// testConfig builds a small 2-node app: frontend (node1) calls backend
// (node2) and sibling (node1) — one remote and one local hop.
func testConfig(sys System) Config {
	return Config{
		System: sys,
		Nodes:  []string{"node1", "node2"},
		Functions: []FunctionSpec{
			{Name: "frontend", Node: "node1", Service: 20 * time.Microsecond},
			{Name: "backend", Node: "node2", Service: 15 * time.Microsecond},
			{Name: "sibling", Node: "node1", Service: 10 * time.Microsecond},
		},
		Chains: []ChainSpec{{
			Name: "mix", Entry: "frontend", ReqBytes: 512, RespBytes: 1024,
			Calls: []Call{
				{Callee: "backend", ReqBytes: 1024, RespBytes: 1024},
				{Callee: "sibling", ReqBytes: 256, RespBytes: 256},
			},
		}},
		Seed: 1,
	}
}

// closedLoop runs n closed-loop clients of chain "mix" from setup on.
func closedLoop(c *Cluster, n int) {
	for i := 0; i < n; i++ {
		id := i
		c.Eng.Spawn("client", func(pr *sim.Proc) {
			c.WaitReady(pr)
			respQ := sim.NewQueue[ingress.Response](c.Eng, 0)
			for {
				c.SubmitChain("mix", id, func(r ingress.Response) { respQ.TryPut(r) })
				respQ.Get(pr)
			}
		})
	}
}

// runChainLoad drives n closed-loop clients for dur (after setup) and
// returns completed requests and the cluster.
func runChainLoad(t *testing.T, sys System, n int, dur time.Duration) (*Cluster, uint64) {
	t.Helper()
	c := NewCluster(testConfig(sys))
	t.Cleanup(c.Eng.Stop)
	closedLoop(c, n)
	c.Eng.RunUntil(dur)
	return c, c.Completed.Total()
}

func TestExchangesCount(t *testing.T) {
	cfg := testConfig(NadinoDNE)
	if got := Exchanges(cfg.Chains[0].Calls); got != 4 {
		t.Fatalf("exchanges = %d, want 4", got)
	}
	nested := []Call{{Callee: "a", Calls: []Call{{Callee: "b"}, {Callee: "c"}}}}
	if got := Exchanges(nested); got != 6 {
		t.Fatalf("nested exchanges = %d, want 6", got)
	}
}

func TestNadinoDNEChainEndToEnd(t *testing.T) {
	c, done := runChainLoad(t, NadinoDNE, 4, 300*time.Millisecond)
	if done < 100 {
		t.Fatalf("completed only %d requests", done)
	}
	h := c.ChainLatency["mix"]
	if h.Mean() <= 0 || h.Mean() > 2*time.Millisecond {
		t.Fatalf("mean chain latency = %v, want sub-millisecond", h.Mean())
	}
	// No drops or send errors anywhere.
	for _, node := range c.cfg.Nodes {
		tx, rx, dnr, dnp, serr := c.Engine(node).Stats()
		if dnr != 0 || dnp != 0 || serr != 0 {
			t.Fatalf("engine %s drops/errors: %d %d %d (tx=%d rx=%d)", node, dnr, dnp, serr, tx, rx)
		}
	}
}

func TestEverySystemServesTheChain(t *testing.T) {
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			_, done := runChainLoad(t, sys, 4, 300*time.Millisecond)
			if done < 20 {
				t.Fatalf("%v completed only %d requests", sys, done)
			}
		})
	}
}

func TestNadinoFastestAtLoad(t *testing.T) {
	const clients = 16
	const dur = 400 * time.Millisecond
	results := make(map[System]uint64)
	for _, sys := range []System{NadinoDNE, Spright, NightCore} {
		_, done := runChainLoad(t, sys, clients, dur)
		results[sys] = done
	}
	if results[NadinoDNE] <= results[Spright] {
		t.Fatalf("NADINO (%d) not above SPRIGHT (%d)", results[NadinoDNE], results[Spright])
	}
	if results[Spright] <= results[NightCore] {
		t.Fatalf("SPRIGHT (%d) not above NightCore (%d)", results[Spright], results[NightCore])
	}
}

func TestBufferConservationAcrossSystems(t *testing.T) {
	for _, sys := range []System{NadinoDNE, NadinoCNE, FuyaoF, Spright, Junction} {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			c, done := runChainLoad(t, sys, 2, 200*time.Millisecond)
			if done == 0 {
				t.Fatal("nothing completed")
			}
			// Stop the load by just letting in-flight work drain.
			c.Eng.RunUntil(c.Eng.Now() + 50*time.Millisecond)
			for name, n := range c.nodes {
				for tenant, pool := range n.pools {
					inUse := pool.InUse()
					var posted int
					if n.engine != nil {
						posted = n.engine.SRQ(tenant).Posted()
					}
					// Closed-loop clients keep some requests in flight;
					// allow those few descriptors plus the posted RQ ring.
					if inUse > posted+16 {
						t.Errorf("%s/%s: pool in use = %d, posted = %d — leak?", name, tenant, inUse, posted)
					}
				}
			}
		})
	}
}

func TestFuyaoCreditsFlowBack(t *testing.T) {
	c, done := runChainLoad(t, FuyaoF, 8, 300*time.Millisecond)
	if done < 50 {
		t.Fatalf("completed %d", done)
	}
	for _, n := range c.nodeSeq {
		if n.fuyao.txCount == 0 {
			t.Fatalf("node %s issued no one-sided writes", n.name)
		}
	}
	// After drain, every ring should be full again (credits returned).
	c.Eng.RunUntil(c.Eng.Now() + 50*time.Millisecond)
	for _, n := range c.nodeSeq {
		for peer, ring := range n.fuyao.rings {
			if len(ring) < fuyaoRingSlots-16 {
				t.Errorf("node %s ring to %s holds %d/%d slots", n.name, peer, len(ring), fuyaoRingSlots)
			}
		}
	}
}

func TestNetCPUAccounting(t *testing.T) {
	c, done := runChainLoad(t, NadinoDNE, 8, 300*time.Millisecond)
	if done == 0 {
		t.Fatal("nothing completed")
	}
	elapsed := c.Eng.Now()
	s := c.NetCPUStats(elapsed)
	if !s.OnDPU {
		t.Fatal("NADINO DNE stats should report DPU cores")
	}
	if s.PinnedCores != 2 {
		t.Fatalf("pinned cores = %v, want 2 (one DNE loop per node)", s.PinnedCores)
	}
	if s.PinnedUseful <= 0 || s.PinnedUseful > 2 {
		t.Fatalf("pinned useful = %v", s.PinnedUseful)
	}
	if s.FnCores < 0 {
		t.Fatalf("fn-core net share = %v", s.FnCores)
	}
	if app := c.AppCPUCores(elapsed); app <= 0 {
		t.Fatalf("app cores = %v", app)
	}
}

// engineHeavyConfig is a chain with enough inter-node exchanges that the
// network engine, not a function, is the bottleneck — the regime where the
// DNE/CNE comparison of §4.3 is made.
func engineHeavyConfig(sys System) Config {
	cfg := testConfig(sys)
	for i := range cfg.Functions {
		cfg.Functions[i].Service = 2 * time.Microsecond
	}
	cfg.Chains = []ChainSpec{{
		Name: "mix", Entry: "frontend", ReqBytes: 512, RespBytes: 1024,
		Calls: []Call{
			{Callee: "backend", ReqBytes: 1024, RespBytes: 1024},
			{Callee: "backend", ReqBytes: 1024, RespBytes: 1024},
			{Callee: "backend", ReqBytes: 1024, RespBytes: 1024},
		},
	}}
	return cfg
}

func runHeavyLoad(t *testing.T, sys System, n int, dur time.Duration) uint64 {
	t.Helper()
	c := NewCluster(engineHeavyConfig(sys))
	t.Cleanup(c.Eng.Stop)
	closedLoop(c, n)
	c.Eng.RunUntil(dur)
	return c.Completed.Total()
}

func TestDNEOutperformsCNEUnderHighConcurrency(t *testing.T) {
	// §4.3: "NADINO's DNE also outperforms NADINO (CNE) (1.3x~1.8x higher
	// RPS) when handling more than 20 clients".
	const clients = 32
	const dur = 400 * time.Millisecond
	dne := runHeavyLoad(t, NadinoDNE, clients, dur)
	cne := runHeavyLoad(t, NadinoCNE, clients, dur)
	ratio := float64(dne) / float64(cne)
	if ratio < 1.1 {
		t.Fatalf("DNE/CNE RPS ratio = %.2f, want > 1.1 at %d clients", ratio, clients)
	}
	if ratio > 3.0 {
		t.Fatalf("DNE/CNE RPS ratio = %.2f, implausibly high", ratio)
	}
}
