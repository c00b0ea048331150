//go:build !race

package ingress

import (
	"runtime"
	"testing"
	"time"

	"nadino/internal/params"
	"nadino/internal/sim"
)

// answerBackend answers every exchange at once, through its record.
type answerBackend struct{}

func (answerBackend) Forward(x *Exchange) {
	x.Done(Response{ID: x.ID, Bytes: x.RespBytes, Stamp: x.Stamp})
}

// TestPlainRequestAllocatesOneRecord fences the gateway's allocations: a
// plain request, from Submit through the client's leg, a worker, the
// backend and back to the client's Reply, allocates exactly its exchange.
// The race detector instruments allocation, so the test is built without
// it.
func TestPlainRequestAllocatesOneRecord(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	g := New(eng, params.Default(), Config{Kind: Nadino}, answerBackend{})
	replies := 0
	reply := func(Response) { replies++ }
	request := func() {
		g.Submit(Request{Client: 1, Bytes: 64, RespBytes: 64, Stamp: eng.Now(), Reply: reply})
		eng.RunFor(100 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		request() // warm-up: queues and the engine reach steady size
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		request()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != n {
		t.Fatalf("%d allocations for %d requests, want one each (its exchange)", got, n)
	}
	if replies != 100+n {
		t.Fatalf("%d replies to %d requests", replies, 100+n)
	}
}
