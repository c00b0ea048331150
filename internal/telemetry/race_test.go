package telemetry

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentScrapeWhileUpdate is the race-proofing stress for the live
// observability plane: writer goroutines hammer counters (and register new
// ones) while reader goroutines render the live Prometheus exposition and
// read counter values. Run under -race (`make race`) this pins the
// registry's concurrency contract: atomic counters, mutex-guarded
// registration, snapshot-based exposition. Gauges registered here read
// atomics only — engine-owned gauge state is out of contract (nadino-svc
// pauses the engine for those).
func TestConcurrentScrapeWhileUpdate(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("stress.count", "Concurrent-update stress counter.")
	var depth atomic.Int64
	reg.Gauge("stress.depth", func() float64 { return float64(depth.Load()) })
	h := reg.Hist("stress.lat")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond) // fed before the race, read during
	}

	counters := make([]*Counter, 8)
	for i := range counters {
		counters[i] = reg.Counter("stress.count", "lane", string(rune('a'+i)))
	}

	const (
		writers = 4
		readers = 4
		iters   = 2000
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				counters[(w+i)%len(counters)].Add(1)
				depth.Add(1)
				if i%500 == 0 {
					// Late registration during live scrapes must be safe.
					reg.Counter("stress.late", "writer", string(rune('a'+w)), "batch", string(rune('0'+i/500)))
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters/10; i++ {
				if err := WritePrometheus(io.Discard, reg); err != nil {
					t.Errorf("exposition failed: %v", err)
					return
				}
				for _, c := range counters {
					_ = c.Value()
				}
				_ = reg.Len()
			}
		}()
	}
	close(start)
	wg.Wait()

	var total uint64
	for _, c := range counters {
		total += c.Value()
	}
	if want := uint64(writers * iters); total != want {
		t.Fatalf("lost counter updates under contention: total %d, want %d", total, want)
	}
}
