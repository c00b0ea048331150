//go:build !race

package core

import (
	"os"
	"runtime"
	"testing"
	"time"

	"nadino/internal/workload"
)

// allocsPerRequestBound fences the data path's allocations per boutique
// request. Each request allocates one ingress exchange and one invocation
// record per call, its entry included (home-query makes six nested calls,
// place-order seven): 8.31 allocs/request here (1,239 requests in the
// window, the same on every run). The bound is that reading plus 2%
// (8.48), so one more allocation per request fails it — a per-request
// closure at the ingress, a trace name built without a tracer, or an
// invocation split back into its contexts (three more per call).
const allocsPerRequestBound = 8.31 * 1.02

// TestAllocsPerRequest counts heap allocations per completed request on
// the boutique app: 32 closed-loop clients (home-query and place-order
// 3:1), a 50 ms window after warm-up. The race detector instruments
// allocation, so the test is built without it.
func TestAllocsPerRequest(t *testing.T) {
	f, err := os.Open("../../configs/boutique.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(cfg)
	defer c.Eng.Stop()
	d := &workload.Driver{
		Chains:  []string{"home-query", "home-query", "home-query", "place-order"},
		Clients: 32, Ready: c.OnReady,
	}
	d.Start(c.Eng, c.SubmitChainSpec)
	for !c.Ready() {
		c.Eng.RunFor(time.Millisecond)
	}
	c.Eng.RunFor(20 * time.Millisecond) // warm-up: pools, rings and maps reach steady size

	var before, after runtime.MemStats
	done := c.Completed.Total()
	runtime.ReadMemStats(&before)
	c.Eng.RunFor(50 * time.Millisecond)
	runtime.ReadMemStats(&after)
	n := c.Completed.Total() - done
	if n == 0 {
		t.Fatal("no request completed in the window")
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("%.2f allocs/request over %d requests", per, n)
	if per > allocsPerRequestBound {
		t.Fatalf("%.2f allocs/request, want <= %.2f", per, allocsPerRequestBound)
	}
}
