package dne

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

// ingestRig is one engine with n attached functions and no route anywhere:
// every ingested descriptor drops at TX, and the drop hook sees its Ctx in
// the order the FCFS scheduler took it in, which is ingest order.
type ingestRig struct {
	eng   *sim.Engine
	e     *Engine
	pool  *mempool.Pool
	ports []*FnPort
}

func newIngestRig(tb testing.TB, loc Location, n int) *ingestRig {
	tb.Helper()
	p := params.Default()
	eng := sim.NewEngine(1)
	tb.Cleanup(eng.Stop)
	net := fabric.New(eng, p)
	d := dpu.New(eng, p, "nodeA", net)
	var worker, keeper *sim.Processor
	if loc == OnCPU {
		worker = sim.NewProcessor(eng, "cne", p.HostCoreSpeed)
		keeper = sim.NewProcessor(eng, "cne-k", p.HostCoreSpeed)
	}
	r := &ingestRig{
		eng:  eng,
		e:    New(eng, p, Config{Node: "nodeA", Loc: loc, InitialRQ: 1}, d, worker, keeper),
		pool: mempool.NewPool(rigTenant, 4096, 64, p.HugepageSize),
	}
	r.e.AddTenant(rigTenant, r.pool, 1)
	for i := 0; i < n; i++ {
		r.ports = append(r.ports, r.e.AttachFunction(fmt.Sprintf("f%d", i), rigTenant))
	}
	r.e.Start()
	return r
}

// send ships one descriptor with record m from port i to the engine.
func (r *ingestRig) send(tb testing.TB, i int, m *mempool.Msg) {
	fp := r.ports[i]
	buf, err := r.pool.Get(mempool.Owner(fp.Fn()))
	if err != nil {
		tb.Fatal(err)
	}
	d := mempool.Descriptor{Buf: buf, Len: 16, Msg: m}
	_, sp, err := fp.SendBegin(&d)
	if err != nil {
		tb.Fatal(err)
	}
	fp.SendEnd(d, sp)
}

func (r *ingestRig) readyBit(i int) bool { return r.e.ready[i>>6]&(1<<(i&63)) != 0 }

// TestIngestVisitsReadyPortsInOrder fences the ready-port mask across two
// words: descriptors that reach ports 69, 0, 64 and 63 at one instant are
// ingested in index order, each port's bit is clear once a pull found it
// empty, and a port attached while the pass is ingesting (the CNE charges
// each SK_MSG pull, so ingest spans virtual time) waits for the next pass
// even though a descriptor reached it mid-pass.
func TestIngestVisitsReadyPortsInOrder(t *testing.T) {
	r := newIngestRig(t, OnCPU, 70)
	var order []int
	var lateHeld, lateReady, emptiedClear bool
	r.e.SetDropHook(func(ctx any) {
		i := ctx.(int)
		if len(order) == 0 {
			// The first TX of the pass: ingest is over for the four.
			lateHeld = r.ports[70].toEngine.Pending() == 1
			lateReady = r.readyBit(70)
			emptiedClear = !r.readyBit(0) && !r.readyBit(63) && !r.readyBit(64) && !r.readyBit(69)
		}
		order = append(order, i)
	})
	const at = 10 * time.Microsecond
	r.eng.At(at, func() {
		for _, i := range []int{69, 0, 64, 63} {
			r.send(t, i, &mempool.Msg{Dst: "nowhere", Ctx: i})
		}
	})
	// The four land at at+SKMsgDeliver and the pass starts ingesting;
	// 1 ns later a new port attaches and is sent to.
	arrive := at + params.Default().SKMsgDeliver
	r.eng.At(arrive+time.Nanosecond, func() {
		if r.e.w.stage != stageIngest {
			t.Errorf("pass at stage %d when port 70 attaches, want ingest", r.e.w.stage)
		}
		r.ports = append(r.ports, r.e.AttachFunction("f70", rigTenant))
		r.send(t, 70, &mempool.Msg{Dst: "nowhere", Ctx: 70})
	})
	r.eng.RunUntil(time.Millisecond)

	if want := []int{0, 63, 64, 69, 70}; !slices.Equal(order, want) {
		t.Fatalf("ingest order %v, want %v", order, want)
	}
	if !lateHeld || !lateReady {
		t.Fatalf("port attached mid-pass: held=%v ready=%v at the pass's first TX, want both", lateHeld, lateReady)
	}
	if !emptiedClear {
		t.Fatal("an emptied port's ready bit was still set at the pass's first TX")
	}
	for i := range r.ports {
		if r.readyBit(i) {
			t.Fatalf("port %d still marked ready after every port drained", i)
		}
	}
}

// BenchmarkDNEIngest measures one descriptor's trip through the engine
// loop with 16 ports attached and traffic on one: Comch-E delivery, the
// ingest stage, the FCFS scheduler and the TX stage (it drops for want of
// a route, and the drop hook sends the next). ns/op is per descriptor;
// the loop allocates nothing (0 allocs/op).
func BenchmarkDNEIngest(b *testing.B) {
	r := newIngestRig(b, OnDPU, 16)
	m := &mempool.Msg{Dst: "nowhere"}
	left := b.N
	r.e.SetDropHook(func(any) {
		if left--; left > 0 {
			r.send(b, 7, m)
		}
	})
	r.eng.At(10*time.Microsecond, func() { r.send(b, 7, m) })
	r.eng.RunUntil(5 * time.Microsecond) // setup: the keeper's first round
	b.ReportAllocs()
	b.ResetTimer()
	for left > 0 {
		r.eng.RunFor(time.Millisecond)
	}
}
