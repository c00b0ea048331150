package core

import (
	"nadino/internal/dne"
	"nadino/internal/dpu"
	"nadino/internal/fabric"
	"nadino/internal/gateway"
	"nadino/internal/speculate"
	"nadino/internal/telemetry"
)

// Instrument registers the cluster-wide standard telemetry probe set on reg,
// mirroring NewChaos's target registry: one call wires every layer with
// stable, labeled series names. Cluster-wide it covers the ingress gateway,
// speculation, per-chain latency and goodput, and the engine's event
// backlog; per node it registers InstrumentNode's set. All sources are
// pull-based accessors, so instrumenting adds no cost to the simulation's
// hot paths — only the scraper touches them, once per period.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	eng := c.Eng
	// build_info and virtual-clock uptime, per exposition convention.
	reg.BuildInfo(eng.Now)
	reg.Gauge("sim.pending", func() float64 { return float64(eng.Pending()) })

	gw := c.gw
	reg.Rate("ingress.served", func() float64 { return float64(gw.Served()) })
	reg.Gauge("ingress.queue_depth", func() float64 { return float64(gw.QueueDepth()) })
	reg.Gauge("ingress.workers", func() float64 { return float64(gw.ActiveWorkers()) })
	reg.Rate("ingress.dropped", func() float64 { return float64(gw.Dropped()) })

	// spec.* family: speculation control-plane counters. The controller is
	// created lazily (first speculated request), so every accessor re-reads
	// gw.Spec() at scrape time instead of capturing a possibly-nil pointer.
	specStat := func(pick func(st speculate.Stats) uint64) func() float64 {
		return func() float64 {
			if sp := gw.Spec(); sp != nil {
				return float64(pick(sp.Stats()))
			}
			return 0
		}
	}
	reg.Rate("spec.launched", specStat(func(st speculate.Stats) uint64 { return st.Launched }))
	reg.Rate("spec.arms", specStat(func(st speculate.Stats) uint64 { return st.Arms }))
	reg.Rate("spec.clones", specStat(func(st speculate.Stats) uint64 { return st.Clones }))
	reg.Rate("spec.hedges", specStat(func(st speculate.Stats) uint64 { return st.Hedges }))
	reg.Rate("spec.cancels", specStat(func(st speculate.Stats) uint64 { return st.Cancels }))
	reg.Rate("spec.kills", specStat(func(st speculate.Stats) uint64 { return st.Kills }))
	reg.Rate("spec.win_primary", specStat(func(st speculate.Stats) uint64 { return st.WinPrimary }))
	reg.Rate("spec.win_clone", specStat(func(st speculate.Stats) uint64 { return st.WinClone }))
	reg.Rate("spec.win_hedge", specStat(func(st speculate.Stats) uint64 { return st.WinHedge }))
	reg.Rate("spec.fn_kills", func() float64 { return float64(c.specFnKills) })

	reg.Rate("cluster.goodput", func() float64 { return float64(c.Completed.Total()) })
	for i := range c.cfg.Chains {
		name := c.cfg.Chains[i].Name
		reg.HistFrom("chain.latency", c.ChainLatency[name], "chain", name)
	}

	tenants := make([]string, len(c.tenants))
	for i, ts := range c.tenants {
		tenants[i] = ts.Name
	}
	for _, n := range c.nodeSeq {
		InstrumentNode(reg, c.net, n.dpu, n.engine, n.gw, tenants)
	}
}

// InstrumentNode registers one node's standard probes on reg, each labeled
// with the node: the SoC DMA, the RNIC (ICM cache, active QPs, RNR retries,
// pipeline), the network engine's worker and keeper cores, scheduler,
// keeper debt and per-tenant SRQs (none when e is nil), the gateway tier
// (none when gw is nil) and the node's fabric egress link. On the DPU the
// engine's worker and keeper are the ARM cores. Cluster.Instrument and the
// micro-rigs register every node through it.
func InstrumentNode(reg *telemetry.Registry, net *fabric.Network, d *dpu.DPU, e *dne.Engine, gw *gateway.Gateway, tenants []string) {
	id := d.Node()
	ns := string(id)
	soc := d.SoCDMA()
	reg.Rate("dpu.dma_util", func() float64 { return soc.BusyTime().Seconds() }, "node", ns)
	reg.Rate("dpu.dma_ops", func() float64 { return float64(soc.Ops()) }, "node", ns)

	rnic := d.RNIC()
	reg.Gauge("rdma.icm_hit_rate", func() float64 {
		h, m := float64(rnic.CacheHits()), float64(rnic.CacheMisses())
		if h+m == 0 {
			return 1
		}
		return h / (h + m)
	}, "node", ns)
	reg.Gauge("rdma.active_qps", func() float64 { return float64(rnic.ActiveQPs()) }, "node", ns)
	reg.Rate("rdma.rnr_retries", func() float64 {
		_, _, _, _, rnr := rnic.Stats()
		return float64(rnr)
	}, "node", ns)
	reg.Rate("rdma.pipe_util", func() float64 { return rnic.PipeBusyTime().Seconds() }, "node", ns)

	if e != nil {
		worker, keeper := e.WorkerCore(), e.KeeperCore()
		reg.Rate("dne.worker_util", func() float64 { return worker.BusyTime().Seconds() }, "node", ns)
		reg.Rate("dne.keeper_util", func() float64 { return keeper.BusyTime().Seconds() }, "node", ns)
		reg.Gauge("dne.sched_pending", func() float64 { return float64(e.SchedPending()) }, "node", ns)
		reg.Gauge("dne.keeper_debt", func() float64 { return float64(e.RQDebt()) }, "node", ns)
		for _, tenant := range tenants {
			srq := e.SRQ(tenant)
			reg.Gauge("dne.srq_posted", func() float64 { return float64(srq.Posted()) },
				"node", ns, "tenant", tenant)
		}
	}

	if gw != nil {
		reg.Gauge("gw.route_version", func() float64 { return float64(gw.Routes().Version()) }, "node", ns)
		reg.Rate("gw.forwarded_msgs", func() float64 { return float64(gw.Stats().Forwarded) }, "node", ns)
		reg.Rate("gw.forwarded_bytes", func() float64 { return float64(gw.Stats().FwdBytes) }, "node", ns)
		reg.Rate("gw.delivered", func() float64 { return float64(gw.Stats().Delivered) }, "node", ns)
		reg.Rate("gw.transit", func() float64 { return float64(gw.Stats().Transit) }, "node", ns)
		reg.Rate("gw.dropped", func() float64 { return float64(gw.Stats().Dropped) }, "node", ns)
		reg.Gauge("gw.pending", func() float64 { return float64(gw.Pending()) }, "node", ns)
		reg.Rate("gw.core_util", func() float64 { return gw.BusyTime().Seconds() }, "node", ns)
	}

	reg.Rate("fabric.bytes", func() float64 {
		bytes, _, _ := net.LinkStats(id)
		return float64(bytes)
	}, "node", ns)
	reg.Rate("fabric.drops", func() float64 {
		_, _, drops := net.LinkStats(id)
		return float64(drops)
	}, "node", ns)
	reg.Gauge("fabric.backlog_bytes", func() float64 { return net.LinkBacklogBytes(id) }, "node", ns)
}
