package core

import (
	"testing"
	"time"

	"nadino/internal/workload"
)

// scaleConfig deploys one slow backend that is allowed to scale out.
func scaleConfig(maxScale int) Config {
	return Config{
		System: NadinoDNE,
		Nodes:  []string{"node1", "node2"},
		Functions: []FunctionSpec{
			{Name: "entry", Node: "node1", Service: 5 * time.Microsecond, Workers: 32},
			{
				Name: "worker", Node: "node2", Service: 200 * time.Microsecond,
				Workers: 4, MaxScale: maxScale, TargetConcurrency: 4,
			},
		},
		Chains: []ChainSpec{{
			Name: "job", Entry: "entry", ReqBytes: 256, RespBytes: 256,
			Calls: []Call{{Callee: "worker", ReqBytes: 512, RespBytes: 512}},
		}},
		AutoscaleEvery: 2 * time.Millisecond,
		Seed:           1,
	}
}

func driveScale(t *testing.T, c *Cluster, clients int, dur time.Duration) uint64 {
	t.Helper()
	d := &workload.Driver{Chains: []string{"job"}, Clients: clients, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	c.Eng.RunUntil(dur)
	return c.Completed.Total()
}

func TestAutoscalerAddsInstancesUnderLoad(t *testing.T) {
	c := NewCluster(scaleConfig(4))
	defer c.Eng.Stop()
	done := driveScale(t, c, 48, 400*time.Millisecond)
	g := c.Group("worker")
	if g.Instances() < 2 {
		t.Fatalf("group never scaled: %d instances", g.Instances())
	}
	ups, _ := g.ScaleEvents()
	if ups == 0 {
		t.Fatal("no scale-up events recorded")
	}
	if done < 1000 {
		t.Fatalf("completed only %d requests", done)
	}
	// Instances must actually share the load: every enabled instance has
	// served traffic (its core shows busy time).
	for i, inst := range g.instances {
		if g.enabled[i] && inst.core.BusyTime() == 0 {
			t.Errorf("instance %s routable but idle", inst.name)
		}
	}
}

func TestAutoscalerImprovesThroughput(t *testing.T) {
	single := NewCluster(scaleConfig(1))
	defer single.Eng.Stop()
	one := driveScale(t, single, 48, 400*time.Millisecond)

	scaled := NewCluster(scaleConfig(4))
	defer scaled.Eng.Stop()
	four := driveScale(t, scaled, 48, 400*time.Millisecond)

	// A 200us backend at concurrency 4 caps ~20K RPS per instance;
	// scaling to 4 instances should multiply throughput substantially.
	ratio := float64(four) / float64(one)
	if ratio < 1.8 {
		t.Fatalf("scale-out speedup = %.2fx (%d vs %d), want >= 1.8x", ratio, four, one)
	}
}

func TestAutoscalerDrainsWhenLoadFades(t *testing.T) {
	c := NewCluster(scaleConfig(4))
	defer c.Eng.Stop()
	// Heavy phase.
	d := &workload.Driver{Chains: []string{"job"}, Clients: 48, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	c.Eng.RunUntil(300 * time.Millisecond)
	g := c.Group("worker")
	peak := g.Instances()
	if peak < 2 {
		t.Fatalf("never scaled up (instances = %d)", peak)
	}
	// Load vanishes; the group drains back toward one instance.
	d.Stop()
	c.Eng.RunUntil(c.Eng.Now() + 300*time.Millisecond)
	if got := g.Instances(); got >= peak {
		t.Fatalf("instances did not drain: peak %d, now %d", peak, got)
	}
	_, downs := g.ScaleEvents()
	if downs == 0 {
		t.Fatal("no scale-down events recorded")
	}
}

func TestNoAutoscalingByDefault(t *testing.T) {
	c := NewCluster(scaleConfig(1))
	defer c.Eng.Stop()
	driveScale(t, c, 32, 200*time.Millisecond)
	if got := c.Group("worker").Instances(); got != 1 {
		t.Fatalf("MaxScale 1 grew to %d instances", got)
	}
}
