package experiments

import (
	"strconv"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/telemetry"
)

// rigTelemetry instruments a dneRig with the standard probe set and starts
// a virtual-time scraper with the given period. It mirrors the chaos
// target-registry pattern: one call per rig wires every layer with stable,
// labeled series names. Returns nil when o.Telemetry is off — and because
// all probes are pull-based and the per-tenant RTT histogram handle is a
// nil-safe no-op when unregistered, a telemetry-off run executes no
// telemetry code at all.
func rigTelemetry(o Opts, r *dneRig, tenants []string, stats map[string]*echoLoad, period time.Duration) *telemetry.Scraper {
	if !o.Telemetry {
		return nil
	}
	reg := telemetry.NewRegistry()
	eng := r.eng
	reg.Gauge("sim.pending", func() float64 { return float64(eng.Pending()) })

	for _, tn := range tenants {
		tn := tn
		st := stats[tn]
		reg.Rate("tenant.goodput", func() float64 { return float64(st.count) }, "tenant", tn)
		st.rtt = reg.Hist("tenant.rtt", "tenant", tn)
	}

	for si, side := range r.sides() {
		ns, peer, e, d := string(side.node), side.peer, side.e, side.d

		worker, keeper := e.WorkerCore(), e.KeeperCore()
		reg.Rate("dne.worker_util", func() float64 { return worker.BusyTime().Seconds() }, "node", ns)
		reg.Rate("dne.keeper_util", func() float64 { return keeper.BusyTime().Seconds() }, "node", ns)
		reg.Gauge("dne.sched_pending", func() float64 { return float64(e.SchedPending()) }, "node", ns)
		reg.Gauge("dne.keeper_debt", func() float64 { return float64(e.RQDebt()) }, "node", ns)

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

		soc := d.SoCDMA()
		reg.Rate("dpu.dma_util", func() float64 { return soc.BusyTime().Seconds() }, "node", ns)
		for i, core := range d.Cores() {
			core := core
			reg.Rate("dpu.core_util", func() float64 { return core.BusyTime().Seconds() },
				"node", ns, "core", strconv.Itoa(i))
		}

		id := fabric.NodeID(ns)
		reg.Rate("fabric.bytes", func() float64 {
			bytes, _, _ := r.net.LinkStats(id)
			return float64(bytes)
		}, "node", ns)
		reg.Rate("fabric.drops", func() float64 {
			_, _, drops := r.net.LinkStats(id)
			return float64(drops)
		}, "node", ns)
		reg.Gauge("fabric.backlog_bytes", func() float64 { return r.net.LinkBacklogBytes(id) }, "node", ns)

		for _, tn := range tenants {
			tn := tn
			srq := e.SRQ(tn)
			reg.Gauge("dne.srq_posted", func() float64 { return float64(srq.Posted()) },
				"node", ns, "tenant", tn)
			pool := r.pools[tn][si] // sides and pools are both [nodeA, nodeB]
			reg.Gauge("pool.in_use", func() float64 { return float64(pool.InUse()) },
				"node", ns, "tenant", tn)
			// Conn pools appear only once setup's handshakes finish; the
			// gauge reads 0 until then.
			reg.Gauge("rdma.pool_active", func() float64 {
				cp := e.ConnPool(peer, tn)
				if cp == nil {
					return 0
				}
				return float64(cp.ActiveCount())
			}, "node", ns, "tenant", tn)
		}
	}
	return reg.Scrape(eng, period)
}

// sinkScrapers hands each non-nil scraper to o.TelemetrySink in input order
// (after the sweep, so parallel runs sink identically to sequential ones).
func sinkScrapers(o Opts, names []string, scs []*telemetry.Scraper) {
	if !o.Telemetry || o.TelemetrySink == nil {
		return
	}
	for i, sc := range scs {
		if sc != nil {
			o.TelemetrySink(names[i], sc)
		}
	}
}
