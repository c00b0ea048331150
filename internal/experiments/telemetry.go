package experiments

import (
	"time"

	"nadino/internal/core"
	"nadino/internal/telemetry"
)

// rigTelemetry instruments a dneRig with the standard probe set and starts
// a virtual-time scraper with the given period. It mirrors the chaos
// target-registry pattern: one call per rig wires every layer with stable,
// labeled series names — per tenant its goodput and RTT, per node
// core.InstrumentNode's set and then each tenant's pool occupancy and
// active connections. Returns nil when o.Telemetry is off — and because
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
		st := stats[tn]
		reg.Rate("tenant.goodput", func() float64 { return float64(st.count) }, "tenant", tn)
		st.rtt = reg.Hist("tenant.rtt", "tenant", tn)
	}

	for si, side := range r.sides() {
		ns, peer, e := string(side.node), side.peer, side.e
		core.InstrumentNode(reg, r.net, side.d, e, nil, tenants)
		for _, tn := range tenants {
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
