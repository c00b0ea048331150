package core

import (
	"nadino/internal/dne"
	"nadino/internal/gateway"
	"nadino/internal/mempool"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// This file is the cluster's read-only inspection surface: the live
// components the simulation fuzzer's invariants audit (internal/simtest).
// Every accessor walks declaration order — nodes, tenants and functions as
// configured, never Go map order — so checks built on it are deterministic.
// Callers read what they are handed and never mutate it.

// NodeView is one worker node's data plane.
type NodeView struct {
	Name string
	// Pools holds the node's unified memory pool per tenant, in
	// TenantWeights order: every node hosts every tenant's pool.
	Pools []*mempool.Pool
	// Engine is the node's network engine (nil on systems without one);
	// Gateway its gateway tier (nil unless Config.Gateways).
	Engine  *dne.Engine
	Gateway *gateway.Gateway
}

// Nodes returns every worker node in declaration order.
func (c *Cluster) Nodes() []NodeView {
	out := make([]NodeView, len(c.nodeSeq))
	for i, n := range c.nodeSeq {
		v := NodeView{Name: string(n.name), Engine: n.engine, Gateway: n.gw}
		for _, ts := range c.tenants {
			v.Pools = append(v.Pools, n.pools[ts.Name])
		}
		out[i] = v
	}
	return out
}

// IngressTenant is the ingress RDMA backend's slice for one tenant: its pool
// on the ingress node, the receive ring it keeps Ring buffers posted to, its
// buffer cache, and its RC pools toward each worker node in node order.
type IngressTenant struct {
	Name  string
	Pool  *mempool.Pool
	SRQ   *rdma.SRQ
	Ring  int
	Cache *mempool.Cache
	Conns []*rdma.ConnPool
}

// IngressView is the ingress RDMA backend: its tenant slices (created
// during setup, in tenant order), the completion queue they share, and its
// loss counters — requests dropped at admission because the pool was
// exhausted, and sends that completed in error (never retried, so the
// request is lost).
type IngressView struct {
	Tenants           []IngressTenant
	CQ                *rdma.CQ
	Drops, SendErrors uint64
}

// Ingress reports the ingress backend; ok is false on systems that proxy
// to their workers over TCP.
func (c *Cluster) Ingress() (v IngressView, ok bool) {
	b := c.rdmaBE
	if b == nil {
		return IngressView{}, false
	}
	v = IngressView{CQ: b.cq, Drops: b.drops, SendErrors: b.sendErrors}
	for _, t := range b.tenantSeq {
		it := IngressTenant{Name: t.name, Pool: t.pool, SRQ: t.srq, Ring: ingressRing, Cache: t.cache}
		for _, n := range c.nodeSeq {
			if cp := t.conns[string(n.name)]; cp != nil {
				it.Conns = append(it.Conns, cp)
			}
		}
		v.Tenants = append(v.Tenants, it)
	}
	return v, true
}

// Processors returns every processor the cluster runs, each labelled by
// its Name: per node the engine's worker and keeper (the DPU's cores for
// the DNE), the gateway core and any system-specific cores; then every
// function core; then the ingress worker cores. Autoscaling appends
// instances and workers, so the list only grows.
func (c *Cluster) Processors() []*sim.Processor {
	var out []*sim.Processor
	for _, n := range c.nodeSeq {
		if n.engine != nil {
			out = append(out, n.engine.WorkerCore(), n.engine.KeeperCore())
		}
		if n.gw != nil {
			out = append(out, n.gw.Core())
		}
		if n.fuyao != nil {
			out = append(out, n.fuyao.core, n.fuyao.pollCore)
		}
		if n.schedCore != nil {
			out = append(out, n.schedCore)
		}
	}
	for _, f := range c.fnSeq {
		out = append(out, f.core)
	}
	return append(out, c.gw.Cores()...)
}
