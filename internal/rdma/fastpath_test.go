package rdma

import (
	"testing"
	"time"

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
// callbacks bound once: depth sends of src in flight on qa, each send
// completion posting the next until sends have been posted (sends < 0:
// until *stop is set), each landed buffer recycled straight back into the
// receiver's SRQ. It returns the delivery counter.
func echoLoop(eng *sim.Engine, qa *QP, cqA, cqB *CQ, srqB *SRQ, src mempool.Buffer, depth, sends int, stop *bool) *int {
	delivered := new(int)
	var post, await, receive func()
	post = func() {
		if sends == 0 || (stop != nil && *stop) {
			return
		}
		sends--
		qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
	}
	await = func() {
		for _, e := range cqA.Poll(0) {
			if e.Op == OpSend {
				post()
			}
		}
		cqA.Notify(await)
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
	eng.Immediate(func() {
		for i := 0; i < depth; i++ {
			post()
		}
		cqA.Notify(await)
	})
	eng.Immediate(receive)
	return delivered
}

// TestDedupStateBoundedUnderSustainedLoad drives a long-lived QP with
// steady traffic for eight dedup windows and bounds what the transport
// keeps per WR: duplicate detection lives on the sender's WR slot, so the
// QPs hold nothing but free-list slots, at most as many as were in flight
// at once, however many messages went through. Once traffic drains,
// nothing stays queued on the engine: no sweeper re-arms after the last
// delivery.
func TestDedupStateBoundedUnderSustainedLoad(t *testing.T) {
	r := newRig(t, 1)
	qa, qb := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 16)
	src, _ := r.poolA.Get("fnA")
	windows, depth := 8, 2
	if testing.Short() {
		windows = 2
	}
	stop := false
	ptr := echoLoop(r.eng, qa, r.cqA, r.cqB, r.srqB, src, depth, -1, &stop)
	r.eng.RunUntil(time.Duration(windows) * dedupWindow)
	if *ptr < 100000 {
		t.Fatalf("driver delivered only %d messages in %d windows", *ptr, windows)
	}
	// Every slot not on the free list is an outstanding WR: no slot waits
	// out a tombstone on this lossless path.
	if live := len(qa.wrFree) + qa.Outstanding(); live > depth {
		t.Fatalf("sender holds %d WR slots (%d free, %d outstanding) with %d in flight",
			live, len(qa.wrFree), qa.Outstanding(), depth)
	}
	if n := len(qb.wrFree); n != 0 {
		t.Fatalf("receiving QP holds %d WR slots", n)
	}
	if n := len(r.rb.flowFree); n > depth {
		t.Fatalf("receiving RNIC holds %d flows with %d copies in flight", n, depth)
	}

	stop = true
	r.eng.RunUntil(r.eng.Now() + time.Millisecond)
	if n := r.eng.Pending(); n != 0 {
		t.Fatalf("%d events still queued 1 ms after traffic drained", n)
	}
	if qa.Outstanding() != 0 || len(qa.wrFree) > depth {
		t.Fatalf("after drain: %d outstanding, %d free slots (depth %d)", qa.Outstanding(), len(qa.wrFree), depth)
	}
}

// TestWRSlabReuse pins the pooled WR-state contract: a QP that sends
// forever reuses a handful of wrState slots instead of allocating one per
// send, and every slot is back on the free list once traffic drains.
func TestWRSlabReuse(t *testing.T) {
	r := newRig(t, 3)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 16)
	src, _ := r.poolA.Get("fnA")
	const msgs = 5000
	echoLoop(r.eng, qa, r.cqA, r.cqB, r.srqB, src, 1, msgs, nil)
	r.eng.Run()
	// One message in flight at a time, never retransmitted: one slot.
	if free := len(qa.wrFree); free != 1 || qa.Outstanding() != 0 {
		t.Fatalf("after drain: %d free slots, %d outstanding, want 1 and 0 for a 1-deep pipeline", free, qa.Outstanding())
	}
	for _, st := range qa.wrFree {
		if st.id != 0 {
			t.Fatalf("free slot still carries WR id %d", st.id)
		}
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
	echoLoop(eng, qa, cqA, cqB, srqB, src, 1, b.N, nil)
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
