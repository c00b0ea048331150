// Benchmarks that regenerate the paper's evaluation artifacts, one per
// table/figure (§4, appendix A). Each iteration runs the experiment at
// quick fidelity; run cmd/nadino-bench for the full-fidelity sweeps and
// printed tables.
//
//	go test -bench=. -benchmem
package nadino

import (
	"runtime"
	"testing"
	"time"

	"nadino/internal/dne"
	"nadino/internal/experiments"
	"nadino/internal/mempool"
	"nadino/internal/metrics"
	"nadino/internal/params"
	"nadino/internal/sim"
)

func benchOpts(i int) experiments.Opts {
	return experiments.Opts{Quick: true, Seed: int64(i + 1)}
}

// BenchmarkFig06Isolation regenerates Fig. 6 (DNE isolation cost).
func BenchmarkFig06Isolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig06(benchOpts(i))
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig09Comch regenerates Fig. 9 (DPU<->host channels).
func BenchmarkFig09Comch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig09(benchOpts(i))
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig11OffPath regenerates Fig. 11 (off-path vs on-path).
func BenchmarkFig11OffPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig11(benchOpts(i))
		if len(res.ConcurrencySweep) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig12Primitives regenerates Fig. 12 (RDMA primitive selection).
func BenchmarkFig12Primitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12(benchOpts(i))
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig13Ingress regenerates Fig. 13 (ingress designs).
func BenchmarkFig13Ingress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig13(benchOpts(i))
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig14Scaling regenerates Fig. 14 (ingress horizontal scaling).
func BenchmarkFig14Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig14(benchOpts(i))
		if len(res.Series) != 3 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFig15Tenancy regenerates Fig. 15 (FCFS vs DWRR fairness).
func BenchmarkFig15Tenancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig15(benchOpts(i))
		if res.DWRR.Aggregate.Len() == 0 {
			b.Fatal("no aggregate series")
		}
	}
}

// BenchmarkFig16Boutique regenerates Fig. 16 (Online Boutique end to end).
func BenchmarkFig16Boutique(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig16(benchOpts(i))
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2Latency regenerates Table 2 (chain latency). It shares the
// boutique sweep with Fig. 16 but reports the latency view.
func BenchmarkTable2Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.RunTable2(benchOpts(i))
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig17TenancyScale regenerates Fig. 17 (6-tenant scalability).
func BenchmarkFig17TenancyScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig17(benchOpts(i))
		if res.Run.Aggregate.Len() == 0 {
			b.Fatal("no aggregate series")
		}
	}
}

// runSuite executes every experiment (figures + ablations) at quick
// fidelity with the given worker count.
func runSuite(b *testing.B, parallel int) {
	b.Helper()
	o := experiments.Opts{Quick: true, Seed: 1, Parallel: parallel}
	for _, e := range experiments.AllWithAblations() {
		if tables := e.Run(o); len(tables) == 0 {
			b.Fatalf("%s produced no tables", e.ID)
		}
	}
}

// BenchmarkSuiteSequential is the full quick suite on one core: the
// baseline for the -parallel speedup. Run with -benchtime 1x; one
// iteration is tens of seconds.
func BenchmarkSuiteSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSuite(b, 1)
	}
}

// BenchmarkSuiteParallel is the same suite with sweep points sharded
// across all cores (nadino-bench -parallel 0). Output is bitwise-identical
// to the sequential run; only the wall clock changes.
func BenchmarkSuiteParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSuite(b, runtime.GOMAXPROCS(0))
	}
}

// ---- Substrate microbenchmarks (host performance of the simulator) ----

// BenchmarkSimEventLoop measures raw event throughput of the DES engine.
func BenchmarkSimEventLoop(b *testing.B) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.After(time.Microsecond, tick)
	eng.Run()
}

// BenchmarkMempoolGetPut measures the pooled allocator fast path.
func BenchmarkMempoolGetPut(b *testing.B) {
	pool := mempool.NewPool("t", 4096, 1024, 2<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := pool.Get("fn")
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Put(buf, "fn"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDWRRSchedule measures scheduler enqueue/dequeue throughput.
func BenchmarkDWRRSchedule(b *testing.B) {
	s := dne.NewDWRR(2048)
	s.SetWeight("a", 6)
	s.SetWeight("b", 1)
	s.SetWeight("c", 2)
	names := []string{"a", "b", "c"}
	d := mempool.Descriptor{Len: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Enqueue(names[i%3], d)
		if _, ok := s.Next(); !ok {
			b.Fatal("scheduler ran dry")
		}
	}
}

// BenchmarkHistObserve measures the latency histogram hot path.
func BenchmarkHistObserve(b *testing.B) {
	h := metrics.NewHist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

// BenchmarkEndToEndEcho measures simulated-seconds-per-wall-second for the
// full DNE data path (the simulator's headline cost).
func BenchmarkEndToEndEcho(b *testing.B) {
	p := params.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rps, _ := experiments.EchoProbe(p, int64(i+1))
		if rps <= 0 {
			b.Fatal("echo produced nothing")
		}
	}
}
