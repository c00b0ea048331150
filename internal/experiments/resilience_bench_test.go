package experiments

import (
	"testing"
	"time"
)

// The resilience benchmarks archive the headline res-* numbers as custom
// benchmark units (b.ReportMetric), which `make bench-res` pipes through
// cmd/benchjson into BENCH_res.json for cross-commit comparison. They are
// meant to run with -benchtime 1x: each iteration is a full quick-mode
// experiment (~seconds), and the metrics are deterministic for the fixed
// seed, so one iteration is exact.

func BenchmarkResStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ResStorm(resOpts)
		storm := res[1]
		b.ReportMetric(storm.Ratio, "recovery_ratio")
		b.ReportMetric(float64(storm.Drops), "drops")
		b.ReportMetric(float64(storm.Repairs), "repairs")
	}
}

// BenchmarkResStormTelemetry is BenchmarkResStorm with the virtual-time
// scraper attached to both runs; the ns/op delta against BenchmarkResStorm
// is the scraper-on overhead (`make bench-res` archives both in
// BENCH_res.json).
func BenchmarkResStormTelemetry(b *testing.B) {
	o := resOpts
	o.Telemetry = true
	for i := 0; i < b.N; i++ {
		res := ResStorm(o)
		b.ReportMetric(res[1].Ratio, "recovery_ratio")
		b.ReportMetric(float64(len(res[1].Telem.Series())), "series")
	}
}

func BenchmarkResRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var worst time.Duration
		for _, r := range ResRecovery(resOpts) {
			if r.Recovered && r.RecoveryTime > worst {
				worst = r.RecoveryTime
			}
		}
		b.ReportMetric(float64(worst)/float64(time.Millisecond), "worst_recovery_ms")
	}
}

func BenchmarkResTenant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ResTenant(resOpts)
		b.ReportMetric(res[0].Retention, "fcfs_retention")
		b.ReportMetric(res[1].Retention, "dwrr_retention")
	}
}
