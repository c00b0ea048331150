package core

import (
	"fmt"

	"nadino/internal/fabric"
	"nadino/internal/flightrec"
)

// This file is the cluster's management surface: the handful of mutations a
// live control plane (nadino-svc's /api/v1 endpoints) applies to a running
// cluster — attaching the flight recorder, re-weighting tenants, and
// overriding routes. Everything here must be called in engine context (the
// daemon calls through its pacer's Do).

// Ready reports whether setup (QP establishment, engine start) finished —
// the daemon's /readyz signal. Safe to call from engine context at any
// time.
func (c *Cluster) Ready() bool { return c.isReady }

// AttachFlightRecorder wires rec into every hook point the cluster owns:
// the ingress gateway, each node's network engine and gateway tier, and
// every RC connection pool that exists at call time. Connection pools are
// created during setup, so attach once the cluster is Ready (OnReady) for QP
// error/repair coverage; the other hooks wire regardless.
func (c *Cluster) AttachFlightRecorder(rec *flightrec.Recorder) {
	if c.gw != nil {
		c.gw.SetFlightRecorder(rec)
	}
	for _, n := range c.nodeSeq {
		ns := string(n.name)
		if n.engine != nil {
			n.engine.SetFlightRecorder(rec)
			for _, cp := range n.engine.ConnPools() {
				cp.SetFlightRecorder(rec, "qp:"+cp.Tenant+"@"+ns)
			}
		}
		if n.gw != nil {
			n.gw.SetFlightRecorder(rec)
			for _, cp := range n.gw.Links() {
				cp.SetFlightRecorder(rec, "gw-qp:"+cp.Tenant+"@"+ns)
			}
		}
	}
}

// SetTenantWeight re-weights a tenant's scheduler share on every node
// engine at runtime — the hot-reload path behind the management API's
// tenant update. Reports whether any engine knew the tenant; weights
// outside [1, MaxTenantWeight] are refused.
func (c *Cluster) SetTenantWeight(tenant string, weight int) bool {
	if weight < 1 || weight > MaxTenantWeight {
		return false
	}
	found := false
	for _, n := range c.nodeSeq {
		if n.engine != nil && n.engine.SetTenantWeight(tenant, weight) {
			found = true
		}
	}
	if found {
		for i := range c.tenants {
			if c.tenants[i].Name == tenant {
				c.tenants[i].Weight = weight
			}
		}
	}
	return found
}

// Reroute points every engine's and gateway's route for logical function fn
// at node — a placement override, the control-plane half of a migration.
// It is honest about what it does NOT do: no instance is moved, so steering
// fn at a node that hosts no instance of it makes the DNE drop deliveries
// as no-port (visible in the flight recorder), exactly like a real route
// pushed ahead of its pod. It therefore refuses nodes that host no instance
// of fn unless force is set.
func (c *Cluster) Reroute(fn, node string, force bool) error {
	target, ok := c.nodes[node]
	if !ok {
		return fmt.Errorf("core: unknown node %q", node)
	}
	known := false
	hosted := false
	for _, f := range c.fnSeq {
		if f.spec.Name == fn || f.name == fn {
			known = true
			if f.node == target {
				hosted = true
			}
		}
	}
	if !known {
		return fmt.Errorf("core: unknown function %q", fn)
	}
	if !hosted && !force {
		return fmt.Errorf("core: node %q hosts no instance of %q (force to steer anyway)", node, fn)
	}
	for _, n := range c.nodeSeq {
		if n.engine != nil {
			n.engine.SetRoute(fn, fabric.NodeID(node))
		}
		if n.gw != nil {
			n.gw.Routes().Set(fn, fabric.NodeID(node))
		}
	}
	return nil
}

// TenantWeights reports the declared tenants and their current weights in
// declaration order (the management API's GET view).
func (c *Cluster) TenantWeights() []TenantSpec {
	out := make([]TenantSpec, len(c.tenants))
	copy(out, c.tenants)
	return out
}
