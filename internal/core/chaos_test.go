package core

import (
	"testing"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/ingress"
	"nadino/internal/rdma"
)

// TestClusterChaosTargets drives the full NADINO stack through a mixed
// fault schedule built from the standard cluster targets: a node blip, a
// SoC DMA stall, a forced-QP-error round, and an ingress restart. The
// cluster must keep completing chains after everything clears, and the
// fault surfaces must each report they were hit.
func TestClusterChaosTargets(t *testing.T) {
	c := NewCluster(testConfig(NadinoDNE))
	t.Cleanup(c.Eng.Stop)
	in := c.NewChaos(1)

	base := c.P.QPSetupTime
	in.Install(chaos.Schedule{
		{At: base + 5*time.Millisecond, For: 2 * time.Millisecond, Fault: chaos.NodeDown{Node: "node2"}},
		{At: base + 20*time.Millisecond, For: 3 * time.Millisecond, Fault: chaos.DMAStall{Target: "dma@node1"}},
		{At: base + 30*time.Millisecond, Fault: chaos.QPError{Target: "qp@node1", Count: 1}},
		{At: base + 40*time.Millisecond, For: 2 * time.Millisecond, Fault: chaos.GatewayRestart{Target: "ingress"}},
		{At: base + 60*time.Millisecond, For: 5 * time.Millisecond, Fault: chaos.SlowCores{Target: "cores@node2", Factor: 0.5}},
	})

	closedLoop(c, 4)
	c.Eng.RunUntil(300 * time.Millisecond)

	if done := c.Completed.Total(); done < 100 {
		t.Fatalf("completed only %d requests under faults", done)
	}
	if in.Applied() != 5 {
		t.Fatalf("applied %d faults, want 5", in.Applied())
	}
	// NodeDown and SlowCores revert; the other three are apply-only.
	if in.Reverted() != 2 {
		t.Fatalf("reverted %d faults, want 2", in.Reverted())
	}
	if c.Net().Drops() == 0 {
		t.Fatal("node blip dropped nothing")
	}
	_, _, drops := c.Net().LinkStats("node1")
	if drops == 0 {
		t.Fatal("node1 egress recorded no drops during the blip")
	}
	// The DMA stall only bites in on-path mode; the injector must still have
	// reached the engine.
	var stalled time.Duration
	for _, n := range c.nodeSeq {
		stalled += n.dpu.SoCDMA().StallTime()
	}
	if stalled != 3*time.Millisecond {
		t.Fatalf("stall time %v, want 3ms", stalled)
	}
	if c.Gateway().InjectedRestarts() != 1 {
		t.Fatalf("gateway restarts = %d, want 1", c.Gateway().InjectedRestarts())
	}
	// The forced QP error was repaired by the keeper loop.
	var repairs uint64
	for _, cp := range c.Engine("node1").ConnPools() {
		repairs += cp.Repairs()
	}
	if repairs == 0 {
		t.Fatal("forced QP error never repaired")
	}
	for _, cp := range c.Engine("node1").ConnPools() {
		if cp.ErroredCount() != 0 {
			t.Fatal("QP still errored at end of run")
		}
	}
}

// TestDroppedCallFreesCaller: a 1 ms crash of node2 under 16 closed-loop
// clients makes the DNE drop frontend->backend calls after their retry
// budget. Each drop must fail the call its caller waits on: the frontend's
// workers then keep serving, so requests issued well after the crash are
// answered.
func TestDroppedCallFreesCaller(t *testing.T) {
	c := NewCluster(testConfig(NadinoDNE))
	t.Cleanup(c.Eng.Stop)
	crash := c.P.QPSetupTime + 10*time.Millisecond
	c.NewChaos(1).Install(chaos.Schedule{{At: crash, For: time.Millisecond,
		Fault: chaos.NodeCrash{Node: "node2", QPs: "qp@node2"}}})
	closedLoop(c, 16)
	var probes, answered int
	c.Eng.At(crash+30*time.Millisecond, func() {
		c.Eng.Ticker(time.Millisecond, func(time.Duration) {
			probes++
			c.SubmitChain("mix", 100+probes, func(ingress.Response) { answered++ })
		})
	})

	c.Eng.RunUntil(crash + 100*time.Millisecond)
	var drops uint64
	for _, n := range c.Nodes() {
		_, d := n.Engine.RetryStats()
		drops += d
	}
	if drops == 0 {
		t.Fatal("the crash dropped no descriptor; the scenario lost its teeth")
	}
	if answered == 0 {
		t.Fatalf("none of %d requests issued after the crash was answered (%d drops)", probes, drops)
	}
}

// TestIngressRepairsQPs: the ingress backend's RC pools, force-errored under
// a 5K rps open loop, must be re-handshaken so traffic resumes and no pool
// is left errored.
func TestIngressRepairsQPs(t *testing.T) {
	c := NewCluster(testConfig(NadinoDNE))
	t.Cleanup(c.Eng.Stop)
	hit := c.P.QPSetupTime + 10*time.Millisecond
	c.Eng.At(hit, func() {
		for _, t := range c.rdmaBE.tenantSeq {
			for _, cp := range t.conns {
				cp.ForceError(0)
			}
		}
	})
	c.Eng.Ticker(200*time.Microsecond, func(time.Duration) { c.SubmitChain("mix", 0, nil) })

	c.Eng.RunUntil(hit + 100*time.Millisecond)
	before := c.Completed.Total()
	c.Eng.RunUntil(hit + 200*time.Millisecond)
	ing, _ := c.Ingress()
	if ing.SendErrors == 0 {
		t.Fatal("forced QP errors caused no send errors")
	}
	if c.Completed.Total() == before {
		t.Fatalf("no reply after the ingress QPs errored (%d send errors)", ing.SendErrors)
	}
	for _, it := range ing.Tenants {
		for _, cp := range it.Conns {
			if n := cp.ErroredCount(); n != 0 {
				t.Fatalf("tenant %s: %d ingress QPs still errored", it.Name, n)
			}
		}
	}
}

// TestCrashTargetHitsBothEnds: "crash@<node>" errors every QP a reboot
// takes down — the node's own engine and gateway pools, the survivors'
// engine and gateway pools toward it, and the ingress backend's pools
// toward it — leaves everything else alone, and every errored pool is
// repaired afterwards.
func TestCrashTargetHitsBothEnds(t *testing.T) {
	cfg := testConfig(NadinoDNE)
	cfg.Gateways = true
	c := NewCluster(cfg)
	t.Cleanup(c.Eng.Stop)
	crash := c.P.QPSetupTime + 5*time.Millisecond
	c.NewChaos(1).Install(chaos.Schedule{{At: crash, For: time.Millisecond,
		Fault: chaos.NodeCrash{Node: "node2", QPs: "crash@node2"}}})
	closedLoop(c, 4)

	c.Eng.RunUntil(crash + 2*time.Millisecond)
	nodes := c.Nodes()
	n1, n2 := nodes[0], nodes[1]
	ing, _ := c.Ingress()
	hit := append(append([]*rdma.ConnPool{}, n2.Engine.ConnPools()...), n2.Gateway.Links()...)
	hit = append(hit, n1.Engine.ConnPool("node2", "tenant_1"), n1.Gateway.Link("node2"), ing.Tenants[0].Conns[1])
	for i, cp := range hit {
		if cp.ErroredCount() == 0 {
			t.Errorf("crash set pool %d (%s) not errored", i, cp.Tenant)
		}
	}
	for _, cp := range []*rdma.ConnPool{n1.Engine.ConnPool("ingress", "tenant_1"), ing.Tenants[0].Conns[0]} {
		if cp.ErroredCount() != 0 {
			t.Error("a pool between surviving nodes was errored")
		}
	}

	c.Eng.RunUntil(crash + 2*time.Millisecond + 2*c.P.QPSetupTime)
	for i, cp := range hit {
		if cp.ErroredCount() != 0 {
			t.Errorf("crash set pool %d still errored after repair", i)
		}
	}
}
