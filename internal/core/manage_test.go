package core

import (
	"testing"
	"time"

	"nadino/internal/flightrec"
	"nadino/internal/ingress"
)

// TestManageSurface exercises the live-management API against a running
// NADINO cluster: readiness, tenant re-weighting, route overrides, and the
// flight-recorder attachment points.
func TestManageSurface(t *testing.T) {
	cfg := testConfig(NadinoDNE)
	cfg.Tenants = []TenantSpec{{Name: "gold", Weight: 4}}
	c := NewCluster(cfg)
	t.Cleanup(c.Eng.Stop)

	if c.Ready() {
		t.Fatal("cluster reports ready before setup ran")
	}
	c.Eng.RunUntil(50 * time.Millisecond)
	if !c.Ready() {
		t.Fatal("cluster not ready after 50ms of setup time")
	}

	rec := flightrec.New(256, c.Eng.Now)
	c.AttachFlightRecorder(rec)

	// Tenant re-weighting: known tenants on every engine, unknown refused.
	if !c.SetTenantWeight("gold", 9) {
		t.Fatal("SetTenantWeight refused a declared tenant")
	}
	if c.SetTenantWeight("no-such-tenant", 3) {
		t.Fatal("SetTenantWeight accepted an unknown tenant")
	}
	if c.SetTenantWeight("gold", 0) {
		t.Fatal("SetTenantWeight accepted a non-positive weight")
	}
	var got int
	for _, ts := range c.TenantWeights() {
		if ts.Name == "gold" {
			got = ts.Weight
		}
	}
	if got != 9 {
		t.Fatalf("TenantWeights reports gold=%d, want 9", got)
	}

	// Route overrides: unknown names refused, un-hosted nodes refused
	// without force, hosted placement accepted.
	if err := c.Reroute("no-such-fn", "node1", false); err == nil {
		t.Fatal("Reroute accepted an unknown function")
	}
	if err := c.Reroute("backend", "no-such-node", false); err == nil {
		t.Fatal("Reroute accepted an unknown node")
	}
	if err := c.Reroute("backend", "node1", false); err == nil {
		t.Fatal("Reroute steered to a node hosting no instance without force")
	}
	if err := c.Reroute("backend", "node2", false); err != nil {
		t.Fatalf("Reroute refused the hosting node: %v", err)
	}

	// The cluster still serves traffic after the management calls, and a
	// forced mis-route shows up in the flight recorder as DNE drops (the
	// exact kind depends on where the descriptor dies: no QP pool toward
	// the bogus placement is no-route, landing without a port is no-port).
	var misroute func(i int)
	misroute = func(i int) {
		if i < 5 {
			c.SubmitChain("mix", 1, nil)
			c.Eng.After(2*time.Millisecond, func() { misroute(i + 1) })
		}
	}
	var serve func(i int)
	serve = func(i int) {
		if i < 20 {
			c.SubmitChain("mix", 1, func(ingress.Response) { c.Eng.Immediate(func() { serve(i + 1) }) })
			return
		}
		if err := c.Reroute("backend", "node1", true); err != nil {
			t.Errorf("forced Reroute failed: %v", err)
		}
		misroute(0)
	}
	c.Eng.Immediate(func() { serve(0) })
	c.Eng.RunUntil(400 * time.Millisecond)

	if c.Completed.Total() < 20 {
		t.Fatalf("completed %d chains, want >= 20", c.Completed.Total())
	}
	if rec.Last(0) == nil {
		t.Fatal("flight recorder captured nothing")
	}
	found := false
	for _, e := range rec.Snapshot() {
		if e.Kind == flightrec.KindDropNoPort || e.Kind == flightrec.KindDropNoRoute {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("forced mis-route produced no drop events; got %s", flightrec.TextDump(rec, 20))
	}
}
