package rdma

import (
	"testing"

	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

// TestSRQBackingArrayBounded is the regression fence for the old
// `posted = posted[1:]` idiom: popping from a Go slice that way never
// releases the backing array, so a long-lived SRQ cycling buffers grew its
// backing array without bound (and pinned every popped descriptor for GC).
// The ring deque must keep capacity proportional to the high-water mark of
// *outstanding* buffers, not to lifetime throughput.
func TestSRQBackingArrayBounded(t *testing.T) {
	srq := NewSRQ("t")
	const rounds = 100000
	const depth = 8
	for i := 0; i < rounds; i++ {
		for j := 0; j < depth; j++ {
			srq.PostRecv(mempool.Descriptor{Tenant: "t", Seq: uint64(i*depth + j)})
		}
		for j := 0; j < depth; j++ {
			d, ok := srq.pop()
			if !ok {
				t.Fatalf("round %d: pop %d failed", i, j)
			}
			if want := uint64(i*depth + j); d.Seq != want {
				t.Fatalf("round %d: FIFO order broken: got seq %d, want %d", i, d.Seq, want)
			}
		}
	}
	if c := srq.posted.Cap(); c > 4*depth {
		t.Fatalf("SRQ backing array grew to %d slots after %d posts with max depth %d — backing-array retention is back",
			c, rounds*depth, depth)
	}
}

// echoLoop runs a closed-loop echo entirely at the rdma layer, as engine
// callbacks bound once: one send of src in flight on qa (up to sends of
// them, or forever when sends < 0), each landed buffer recycled straight
// back into the receiver's SRQ. It returns the delivery counter.
func echoLoop(eng *sim.Engine, qa *QP, cqA, cqB *CQ, srqB *SRQ, src mempool.Buffer, sends int) *int {
	delivered := new(int)
	var post, await, receive func()
	post = func() {
		qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
		await()
	}
	await = func() {
		if cqA.Len() == 0 {
			cqA.Notify(await)
			return
		}
		cqA.Poll(0)
		if sends--; sends != 0 {
			post()
		}
	}
	receive = func() {
		for _, e := range cqB.Poll(0) {
			if e.Op == OpRecv {
				*delivered++
				srqB.PostRecv(mempool.Descriptor{Tenant: "t", Buf: e.Desc.Buf})
			}
		}
		cqB.Notify(receive)
	}
	eng.Immediate(post)
	eng.Immediate(receive)
	return delivered
}

// TestSeenLogBoundedUnderSustainedLoad drives a long-lived QP with steady
// traffic for several multiples of the dedup window and asserts the
// receiver's duplicate-detection state stays bounded: the seen set and its
// expiry log must hold only entries younger than dedupWindow, not every
// wire ID the QP ever delivered (the old seenLog grew one entry per
// message, forever). Eight windows are enough: without the sweep the live
// state holds all eight windows' worth, twice the bound.
func TestSeenLogBoundedUnderSustainedLoad(t *testing.T) {
	r := newRig(t, 1)
	qa, qb := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 16)
	src, _ := r.poolA.Get("fnA")
	const windows = 8
	ptr := echoLoop(r.eng, qa, r.cqA, r.cqB, r.srqB, src, -1)
	r.eng.RunUntil(windows * dedupWindow)
	delivered := *ptr

	if delivered < 1000 {
		t.Fatalf("driver delivered only %d messages — load too light to exercise the sweep", delivered)
	}
	// Entries expire after dedupWindow; with ~1-2µs per echo the live set
	// is a few hundred thousand times smaller than lifetime deliveries.
	perWindow := delivered/windows + 1
	if n := qb.seenLog.Len(); n > 4*perWindow {
		t.Fatalf("seenLog holds %d entries after %d deliveries (~%d per window) — sweep is not trimming",
			n, delivered, perWindow)
	}
	if n := qb.seen.n; n > 4*perWindow {
		t.Fatalf("seen set holds %d entries after %d deliveries (~%d per window) — entries never expire",
			n, delivered, perWindow)
	}
	if c := qb.seenLog.Cap(); c > 64*perWindow {
		t.Fatalf("seenLog backing array at %d slots — unbounded growth", c)
	}
}

// TestWRSlabReuse pins the pooled WR-state contract: a QP that sends
// forever reuses a handful of wrState slots instead of allocating one per
// send, and the pending table stays empty once traffic drains.
func TestWRSlabReuse(t *testing.T) {
	r := newRig(t, 3)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 16)
	src, _ := r.poolA.Get("fnA")
	const msgs = 5000
	echoLoop(r.eng, qa, r.cqA, r.cqB, r.srqB, src, msgs)
	r.eng.Run()
	if n := qa.pending.n; n != 0 {
		t.Fatalf("pending table holds %d entries after drain", n)
	}
	// One message in flight at a time: the slab needs ~1 live slot; allow
	// slack for tombstoned retransmit slots.
	if free := len(qa.wrFree); free > 8 {
		t.Fatalf("wrState free list grew to %d slots for a 1-deep pipeline — slots are not being reused", free)
	}
}

// BenchmarkQPPostSend measures the full two-sided send hot path — PostSend
// through delivery, receiver CQE, ack and sender completion — in virtual
// time, end to end through the pooled WR slab and recvFlow state machine.
func BenchmarkQPPostSend(b *testing.B) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	net := fabric.New(eng, p)
	ra := NewRNIC(eng, p, "nodeA", net)
	rb := NewRNIC(eng, p, "nodeB", net)
	poolA := mempool.NewPool("t", 8192, 64, p.HugepageSize)
	poolB := mempool.NewPool("t", 8192, 64, p.HugepageSize)
	srqA, srqB := NewSRQ("t"), NewSRQ("t")
	cqA, cqB := NewCQ(eng), NewCQ(eng)
	qa, _ := Connect(ra, rb, "t", srqA, srqB, cqA, cqB)
	for i := 0; i < 32; i++ {
		buf, _ := poolB.Get("rq")
		srqB.PostRecv(mempool.Descriptor{Tenant: "t", Buf: buf})
	}
	src, _ := poolA.Get("fnA")
	echoLoop(eng, qa, cqA, cqB, srqB, src, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkCQPollInto measures the CQ ring hot path: batched push and
// caller-buffer drain, no per-poll allocation.
func BenchmarkCQPollInto(b *testing.B) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	cq := NewCQ(eng)
	buf := make([]CQE, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			cq.push(CQE{WRID: uint64(i*16 + j), Op: OpSend, Status: StatusOK})
		}
		for cq.n > 0 {
			cq.PollInto(buf)
		}
	}
}
