package core

import (
	"testing"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/rdma"
	"nadino/internal/workload"
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
	d := &workload.Driver{Chains: []string{"mix"}, Clients: n, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
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

// TestFuyaoRetryBatchSurvivesStall holds one destination's credits back
// while another's return: a retry pass that stalls on the first must still
// send the messages after it, so every deferred message arrives once
// credits are back (a stall used to drop the rest of the batch).
func TestFuyaoRetryBatchSurvivesStall(t *testing.T) {
	c := NewCluster(Config{
		System: FuyaoF,
		Nodes:  []string{"node1", "node2", "node3"},
		Functions: []FunctionSpec{
			{Name: "frontend", Node: "node1", Service: 5 * time.Microsecond, Workers: 3},
			{Name: "b2", Node: "node2", Service: 5 * time.Microsecond},
			{Name: "b3", Node: "node3", Service: 5 * time.Microsecond},
		},
		Chains: []ChainSpec{{
			Name: "fan", Entry: "frontend", ReqBytes: 256, RespBytes: 256,
			Calls: []Call{
				{Callee: "b2", ReqBytes: 256, RespBytes: 256, Async: true},
				{Callee: "b3", ReqBytes: 256, RespBytes: 256, Async: true},
			},
		}},
		Seed: 1,
	})
	t.Cleanup(c.Eng.Stop)
	for !c.Ready() {
		c.Eng.RunFor(time.Millisecond)
	}
	e := c.nodes["node1"].fuyao
	held := map[string][]rdma.RemoteBuf{"node2": e.rings["node2"], "node3": e.rings["node3"]}
	e.rings["node2"], e.rings["node3"] = nil, nil
	const chains = 3
	replies := 0
	for i := 0; i < chains; i++ {
		c.SubmitChain("fan", i, func(ingress.Response) { replies++ })
	}
	c.Eng.RunFor(time.Millisecond)
	dsts := map[string]int{}
	for _, d := range e.deferred {
		dsts[d.Msg.Dst]++
	}
	if len(e.deferred) < 3 || len(dsts) != 2 {
		t.Fatalf("deferred %d messages to %v; want at least 3 over two destinations", len(e.deferred), dsts)
	}
	// Credits return to node3 first, then to node2.
	for _, node := range []string{"node3", "node2"} {
		node := node
		c.Eng.Immediate(func() {
			e.rings[node] = held[node]
			e.work.Pulse()
		})
		c.Eng.RunFor(time.Millisecond)
	}
	c.Eng.RunFor(10 * time.Millisecond)
	if replies != chains || len(e.deferred) != 0 {
		t.Fatalf("%d of %d chains completed, %d messages still deferred", replies, chains, len(e.deferred))
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
