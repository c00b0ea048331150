package main

import (
	"sort"
	"time"
)

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds.
type metricDef struct {
	name, unit, better string
	// bound is how far the metric may worsen, as a share of the parent
	// commit's median, before a change counts as a regression.
	bound float64
	// modeled marks virtual-time results of the simulated system; they
	// repeat exactly for a fixed seed. The rest are host costs of the
	// simulator itself.
	modeled bool
}

// modeledReplicas is how many replicas (seeds seed .. seed+8) the modeled
// metrics pool. Host metrics take the median over every replica run.
const modeledReplicas = 9

// The bounds sit at three times or more the largest spread measured across
// ten seeds (README.md); host times cannot be held tighter on a shared host.
var endToEnd = []metricDef{
	{name: "wall_ns_per_req", unit: "ns", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_req", unit: "count", better: "lower", bound: 0.05},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "vrps", unit: "1/s", better: "higher", bound: 0.03, modeled: true},
	{name: "vlat_mean_us", unit: "us", better: "lower", bound: 0.01, modeled: true},
	{name: "vlat_p999_us", unit: "us", better: "lower", bound: 0.05, modeled: true},
	{name: "dp_cores", unit: "cores", better: "lower", bound: 0.01, modeled: true},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) {
		ms = append(ms, metricDef{name: name, unit: unit, better: better})
	}
	for _, l := range hostLayers {
		add("host."+l+".ns_per_req", "ns", "lower")
	}
	for _, d := range [][3]string{
		{"sim.events_per_req", "count", "lower"},
		{"sim.run_ns_per_event", "ns", "lower"},
		{"sim.pending_max", "count", "lower"},
		{"sim.procs", "count", "lower"},
		{"ingress.submit_ns", "ns", "lower"},
		{"ingress.dropped", "count", "lower"},
		{"ingress.queue_depth_max", "count", "lower"},
		{"dpu.core_util", "ratio", "lower"},
		{"dpu.dma_util", "ratio", "lower"},
		{"dpu.dma_ops_per_req", "count", "lower"},
		{"dne.worker_util", "ratio", "lower"},
		{"dne.keeper_util", "ratio", "lower"},
		{"dne.tx_per_req", "count", "lower"},
		{"dne.drops", "count", "lower"},
		{"dne.retries", "count", "lower"},
		{"dne.sched_pending_max", "count", "lower"},
		{"rdma.ops_per_req", "count", "lower"},
		{"rdma.icm_hit_rate", "ratio", "higher"},
		{"rdma.rnr_retries", "count", "lower"},
		{"rdma.pipe_util", "ratio", "lower"},
		{"rdma.active_qps", "count", "lower"},
		{"gw.fwd_per_req", "count", "lower"},
		{"gw.dropped", "count", "lower"},
		{"gw.transit", "count", "lower"},
		{"gw.core_util", "ratio", "lower"},
		{"fabric.bytes_per_req", "B", "lower"},
		{"fabric.drops", "count", "lower"},
		{"spec.arms_per_req", "count", "lower"},
		{"spec.cancels_per_req", "count", "lower"},
		{"spec.hedge_win_ratio", "ratio", "higher"},
		{"core.cold_starts", "count", "lower"},
		{"core.spec_fn_kills", "count", "lower"},
		{"flightrec.events_per_req", "count", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"runtime.gc_cycles_per_kreq", "count", "lower"},
	} {
		add(d[0], d[1], d[2])
	}
	for _, s := range stages {
		add("stage."+s+".us_per_req", "us", "lower")
	}
	add("stage.reconcile_err", "ratio", "lower")
	add("trace_overhead", "ratio", "lower")
	return ms
}

// summarize reduces a workload's timed replicas to its end-to-end metrics.
func summarize(wl *workload, reps []*replicaResult) map[string]float64 {
	host := func(f func(*replicaResult) float64) float64 {
		xs := make([]float64, len(reps))
		for i, rr := range reps {
			xs[i] = f(rr)
		}
		return median(xs)
	}
	// Host times are normalized to the reference speed (see calibrate.go);
	// allocation counts and heap size do not drift with it.
	m := map[string]float64{
		"wall_ns_per_req": host(func(rr *replicaResult) float64 { return rr.speed * wallPerReq(rr) }),
		"setup_s":         host(func(rr *replicaResult) float64 { return rr.setupSpeed * rr.setup.Seconds() }),
		"allocs_per_req":  host(func(rr *replicaResult) float64 { return float64(rr.mallocs) / float64(rr.issued) }),
		"live_heap_mb":    host(func(rr *replicaResult) float64 { return float64(rr.heap) / 1e6 }),
	}
	pooled := reps[:modeledReplicas]
	var lat []time.Duration
	var replies int
	var dp, latSum float64
	for _, rr := range pooled {
		lat = append(lat, rr.lat...)
		replies += rr.inWindow
		dp += rr.dpCores
	}
	for _, l := range lat {
		latSum += float64(l)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	n := float64(len(pooled))
	m["vrps"] = float64(replies) / (n * wl.window.Seconds())
	// The mean, not the median: below saturation most requests see no
	// queueing, so the median is the fixed unloaded path and reads the
	// same for every seed.
	m["vlat_mean_us"] = latSum / float64(len(lat)) / 1e3
	m["vlat_p999_us"] = quantile(lat, 0.999) / 1e3
	m["dp_cores"] = dp / n
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile interpolates linearly between the closest ranks of sorted, in ns.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i]) + frac*float64(sorted[i+1]-sorted[i])
}
