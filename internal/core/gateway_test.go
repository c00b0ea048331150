package core

import (
	"fmt"
	"testing"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/fabric"
	"nadino/internal/workload"
)

// paced sends n requests of chain from setup on, one every gap.
func paced(c *Cluster, chain string, n int, gap time.Duration) {
	d := &workload.Driver{Chains: []string{chain}, Think: workload.Every(gap), Requests: n, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
}

// TestGatewayClusterServesChains runs the standard 2-node app with the
// gateway tier enabled: every cross-node hop must travel through the
// gateways (the engines' direct QPs see none of them), and the fleet-wide
// conservation law must hold once traffic drains.
func TestGatewayClusterServesChains(t *testing.T) {
	cfg := testConfig(NadinoDNE)
	cfg.Gateways = true
	c := NewCluster(cfg)
	t.Cleanup(c.Eng.Stop)

	const reqs = 200
	paced(c, "mix", reqs, 500*time.Microsecond)
	c.Eng.RunUntil(500 * time.Millisecond)

	if done := c.Completed.Total(); done != reqs {
		t.Fatalf("completed %d of %d requests through the gateway tier", done, reqs)
	}
	var fwd, in, out, drop uint64
	for _, g := range c.Gateways() {
		s := g.Stats()
		fwd += s.Forwarded
		in += s.AcceptIn
		out += s.Delivered
		drop += s.Dropped
		if g.Pending() != 0 || g.InflightWrites() != 0 {
			t.Errorf("gateway %s not drained: pending=%d inflight=%d", g.Node(), g.Pending(), g.InflightWrites())
		}
	}
	if fwd == 0 {
		t.Fatal("gateways forwarded nothing — cross-node hops bypassed the tier")
	}
	if in != out+drop {
		t.Fatalf("conservation broken: acceptIn=%d delivered=%d dropped=%d", in, out, drop)
	}
	// frontend->backend and the response are the only cross-node hops; the
	// engine must have handed exactly those to the gateway.
	if e1 := c.Engine("node1").Forwarded(); e1 == 0 {
		t.Error("node1 engine reports no forwards handed to its gateway")
	}
}

// gatewayChaosConfig is a 3-node chain whose only remote hop is
// node1 -> node3, leaving node2 as a pure relay for failover detours.
func gatewayChaosConfig(seed int64) Config {
	return Config{
		System:   NadinoDNE,
		Nodes:    []string{"node1", "node2", "node3"},
		Gateways: true,
		Functions: []FunctionSpec{
			{Name: "f1", Node: "node1", Service: 15 * time.Microsecond},
			{Name: "f2", Node: "node3", Service: 10 * time.Microsecond},
		},
		Chains: []ChainSpec{{
			Name: "hop", Entry: "f1", ReqBytes: 512, RespBytes: 512,
			Calls: []Call{{Callee: "f2", ReqBytes: 1024, RespBytes: 1024}},
		}},
		Seed: seed,
	}
}

// runGatewayChaos drives the 3-node chain through a partition (node1|node3,
// healing after 150ms) and a relay-node crash, returning a stats fingerprint.
func runGatewayChaos(t *testing.T, seed int64) (fingerprint string, completed uint64, transit uint64) {
	t.Helper()
	c := NewCluster(gatewayChaosConfig(seed))
	defer c.Eng.Stop()
	in := c.NewChaos(seed)
	in.Install(chaos.Schedule{
		{At: 150 * time.Millisecond, For: 150 * time.Millisecond,
			Fault: chaos.Partition{A: []fabric.NodeID{"node1"}, B: []fabric.NodeID{"node3"}}},
		{At: 350 * time.Millisecond, For: 30 * time.Millisecond,
			Fault: chaos.NodeCrash{Node: "node2", QPs: "gw-qp@node2"}},
	})
	const reqs = 600
	paced(c, "hop", reqs, 600*time.Microsecond)
	c.Eng.RunUntil(time.Second)

	out := fmt.Sprintf("completed=%d|", c.Completed.Total())
	var inSum, delSum, dropSum uint64
	for _, g := range c.Gateways() {
		s := g.Stats()
		inSum += s.AcceptIn
		delSum += s.Delivered
		dropSum += s.Dropped
		transit += s.Transit
		out += fmt.Sprintf("%s:%+v v%d|", g.Node(), s, g.Routes().Version())
	}
	if inSum != delSum+dropSum {
		t.Errorf("seed %d: conservation broken: acceptIn=%d delivered=%d dropped=%d", seed, inSum, delSum, dropSum)
	}
	return out, c.Completed.Total(), transit
}

// TestGatewayChaosFailover drives Partition + NodeCrash against the 3-node
// chain: the route tables must detour through node2 while the partition
// holds (transit legs observed), most traffic must still complete, and two
// same-seed runs must be byte-identical.
func TestGatewayChaosFailover(t *testing.T) {
	a, completed, transit := runGatewayChaos(t, 23)
	if transit == 0 {
		t.Error("no transit legs — the partition never detoured through node2")
	}
	if completed < 500 {
		t.Errorf("only %d of 600 requests completed across partition + crash", completed)
	}
	b, _, _ := runGatewayChaos(t, 23)
	if a != b {
		t.Errorf("same-seed chaos runs diverged:\n  %s\n  %s", a, b)
	}
}
