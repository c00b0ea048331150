package rdma

import (
	"testing"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/mempool"
	"nadino/internal/params"
)

func TestRetransmitRecoversFromLinkBlip(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 16)

	// Link down for 1.2ms starting just before the send.
	in := chaos.NewInjector(r.eng, r.net, 1)
	in.Install(chaos.Schedule{
		{At: 0, For: 1200 * time.Microsecond, Fault: chaos.NodeDown{Node: "nodeB"}},
	})

	var status Status = -1
	var doneAt time.Duration
	r.eng.Immediate(func() {
		src, _ := r.poolA.Get("cli")
		qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 512})
		awaitCQ(r.cqA, func() {
			e := r.cqA.Poll(1)[0]
			status = e.Status
			doneAt = r.eng.Now()
		})
	})
	r.eng.RunUntil(time.Second)
	if status != StatusOK {
		t.Fatalf("send status = %v after link recovery, want OK", status)
	}
	if doneAt < 1200*time.Microsecond {
		t.Fatalf("completed at %v, before the link came back", doneAt)
	}
	if qa.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded across the blip")
	}
	if qa.Errored() {
		t.Fatal("QP errored despite successful recovery")
	}
}

func TestPersistentOutageErrorsQP(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 4)
	// Permanent outage: For == 0 means the fault never reverts.
	in := chaos.NewInjector(r.eng, r.net, 1)
	in.Install(chaos.Schedule{{At: 0, Fault: chaos.NodeDown{Node: "nodeB"}}})

	var status Status = -1
	r.eng.Immediate(func() {
		src, _ := r.poolA.Get("cli")
		qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 512})
		awaitCQ(r.cqA, func() { status = r.cqA.Poll(1)[0].Status })
	})
	r.eng.RunUntil(time.Second)
	if status != StatusRetryExceeded {
		t.Fatalf("status = %v, want StatusRetryExceeded", status)
	}
	if !qa.Errored() {
		t.Fatal("QP not in error state after retry exhaustion")
	}
	// New posts on the errored QP flush immediately with an error.
	var flushed Status = -1
	r.eng.Immediate(func() {
		src, _ := r.poolA.Get("cli")
		qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
		awaitCQ(r.cqA, func() { flushed = r.cqA.Poll(1)[0].Status })
	})
	r.eng.RunUntil(2 * time.Second)
	if flushed != StatusQPError {
		t.Fatalf("post on errored QP = %v, want StatusQPError", flushed)
	}
}

// TestRepairMatchesFullScan pins Repair's idle short cut: after each kind
// of error the RNIC counts, Repair starts exactly the repairs a full scan
// of the pool would, and at least one.
func TestRepairMatchesFullScan(t *testing.T) {
	// fullScan counts what Repair would start without the short cut.
	fullScan := func(cp *ConnPool) int {
		n := 0
		for _, qp := range cp.conns {
			if qp.errored && !qp.repairing {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name string
		// hurt errors QPs of pool (and maybe of sibling, a pool on the same
		// local RNIC) once both pools have been scanned clean.
		hurt func(t *testing.T, r *testRig, pool, sibling *ConnPool)
	}{
		{"force-error", func(t *testing.T, r *testRig, pool, _ *ConnPool) {
			pool.conns[1].ForceError()
		}},
		{"retry-exceeded", func(t *testing.T, r *testRig, pool, _ *ConnPool) {
			in := chaos.NewInjector(r.eng, r.net, 1)
			in.Install(chaos.Schedule{{At: r.eng.Now(), Fault: chaos.NodeDown{Node: "nodeB"}}})
			src, _ := r.poolA.Get("cli")
			pool.Pick().PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
			r.eng.RunUntil(r.eng.Now() + time.Second)
		}},
		{"error-after-repair", func(t *testing.T, r *testRig, pool, _ *ConnPool) {
			pool.conns[2].ForceError()
			if n := pool.Repair(); n != 1 {
				t.Fatalf("first repair started %d, want 1", n)
			}
			r.eng.RunUntil(r.eng.Now() + r.p.QPSetupTime)
			if pool.conns[2].Errored() {
				t.Fatal("QP still errored after its repair")
			}
			pool.conns[2].ForceError()
		}},
		{"sibling-pool", func(t *testing.T, r *testRig, pool, sibling *ConnPool) {
			sibling.conns[0].ForceError()
			pool.conns[3].ForceError()
			if got, want := sibling.Repair(), 1; got != want {
				t.Fatalf("sibling repair started %d, want %d", got, want)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1)
			var pool, sibling *ConnPool
			EstablishPair(r.eng, r.p, "t", r.ra, r.rb, 4, r.srqA, r.srqB, r.cqA, r.cqB, func(a, _ *ConnPool) {
				pool = a
				EstablishPair(r.eng, r.p, "u", r.ra, r.rb, 4, r.srqA, r.srqB, r.cqA, r.cqB, func(a, _ *ConnPool) { sibling = a })
			})
			r.eng.Run()
			if pool.Repair() != 0 || sibling.Repair() != 0 {
				t.Fatal("Repair started work on a healthy pool")
			}
			tc.hurt(t, r, pool, sibling)
			want := fullScan(pool)
			if want == 0 {
				t.Fatal("case errored no QP of the pool")
			}
			if got := pool.Repair(); got != want {
				t.Fatalf("Repair started %d repairs, a full scan finds %d", got, want)
			}
			if got := pool.Repair(); got != 0 {
				t.Fatalf("second Repair started %d, want 0", got)
			}
		})
	}
}

func TestConnPoolRepairsErroredQPs(t *testing.T) {
	r := newRig(t, 1)
	// Outage from pool establishment until t=50ms: long enough to error the
	// first QP. The revert fires inside RunUntil (inclusive), so the link is
	// back before Repair runs — same sequencing as the manual SetDown rig.
	in := chaos.NewInjector(r.eng, r.net, 1)
	in.Install(chaos.Schedule{{
		At: r.p.QPSetupTime, For: 50*time.Millisecond - r.p.QPSetupTime,
		Fault: chaos.NodeDown{Node: "nodeB"},
	}})
	var pa *ConnPool
	EstablishPair(r.eng, r.p, "t", r.ra, r.rb, 4, r.srqA, r.srqB, r.cqA, r.cqB, func(a, _ *ConnPool) {
		pa = a
		postRecvs(t, r.poolB, r.srqB, 64)
		src, _ := r.poolA.Get("cli")
		pa.Pick().PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
	})
	r.eng.RunUntil(50 * time.Millisecond)
	errored := 0
	for _, qp := range pa.Conns() {
		if qp.Errored() {
			errored++
		}
	}
	if errored == 0 {
		t.Fatal("no QP errored during the outage")
	}
	if n := pa.Repair(); n == 0 {
		t.Fatal("Repair found nothing to fix")
	}
	r.eng.RunUntil(r.eng.Now() + 2*r.p.QPSetupTime)
	for _, qp := range pa.Conns() {
		if qp.Errored() {
			t.Fatal("QP still errored after repair window")
		}
	}
	if pa.Repairs() == 0 {
		t.Fatal("repair counter not incremented")
	}
	// And the repaired pool carries traffic again.
	var ok bool
	r.eng.Immediate(func() {
		src, _ := r.poolA.Get("cli")
		pa.Pick().PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
		awaitCQ(r.cqB, func() {
			for _, e := range r.cqB.Poll(0) {
				if e.Op == OpRecv {
					ok = true
				}
			}
		})
	})
	r.eng.RunUntil(r.eng.Now() + 100*time.Millisecond)
	if !ok {
		t.Fatal("repaired pool did not deliver")
	}
}

func TestRetransmitTimerDoesNotDuplicate(t *testing.T) {
	// Normal (lossless) operation: retransmit timers must never fire and
	// receivers must see exactly one delivery per send.
	p := params.Default()
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 64)
	recvs := 0
	var receive func()
	receive = func() {
		for _, e := range r.cqB.Poll(0) {
			if e.Op == OpRecv {
				recvs++
			}
		}
		awaitCQ(r.cqB, receive)
	}
	awaitCQ(r.cqB, receive)
	var send func(i int)
	send = func(i int) {
		if i == 32 {
			return
		}
		src, err := r.poolA.Get("cli")
		if err != nil {
			t.Error(err)
			return
		}
		qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 256})
		r.eng.After(p.RetransmitTimeout, func() { send(i + 1) }) // straddle the timer window
	}
	r.eng.Immediate(func() { send(0) })
	r.eng.RunUntil(time.Second)
	if recvs != 32 {
		t.Fatalf("recv completions = %d, want exactly 32 (no duplicates, no losses)", recvs)
	}
	if qa.Retransmits() != 0 {
		t.Fatalf("lossless run recorded %d retransmits", qa.Retransmits())
	}
}

// TestRetransmitMeetsLandedSend makes a retransmitted copy of a two-sided
// send meet an original that has already landed: the SRQ stays empty past
// RetransmitTimeout, so the original RNR-loops while the sender
// retransmits. Once buffers are posted one copy lands and every other copy
// is re-acked without consuming a buffer — whether it retries after the
// landing (its start sees the PSN consumed) or in the same receive-pipe
// slot as the copy that lands (its match does).
func TestRetransmitMeetsLandedSend(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rnrDelay time.Duration
		postAt   time.Duration
		// retransmits is how many copies the sender adds to the original;
		// each copy runs a receive flow to its end (ack or re-ack).
		retransmits int
	}{
		// The retransmit leaves at 500µs; the original retries at ~600µs,
		// the copy at ~800µs.
		{"copy retries after landing", 300 * time.Microsecond, 550 * time.Microsecond, 1},
		// The original's and the retransmit's retries both fall at ~1ms,
		// one pipe slot apart, after buffers are posted at 510µs.
		{"retries share a pipe slot", 500 * time.Microsecond, 510 * time.Microsecond, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1)
			// Seven RNR retries outlast the ack timeout.
			r.p.RNRRetryDelay = tc.rnrDelay
			qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
			src, _ := r.poolA.Get("fnA")
			qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64, Seq: 9})
			r.eng.At(tc.postAt, func() { postRecvs(t, r.poolB, r.srqB, 4) })
			r.eng.Run()

			if n := qa.Retransmits(); n != uint64(tc.retransmits) {
				t.Fatalf("retransmits = %d, want %d", n, tc.retransmits)
			}
			recvs := r.cqB.Poll(0)
			if len(recvs) != 1 || recvs[0].Op != OpRecv || recvs[0].Desc.Seq != 9 {
				t.Fatalf("receiver CQEs = %+v, want one receive of seq 9", recvs)
			}
			sends := r.cqA.Poll(0)
			if len(sends) != 1 || sends[0].Op != OpSend || sends[0].Status != StatusOK {
				t.Fatalf("sender CQEs = %+v, want one OK send completion", sends)
			}
			if c, posted := r.srqB.Consumed(), r.srqB.Posted(); c != 1 || posted != 3 {
				t.Fatalf("SRQ consumed %d buffers, %d still posted; want 1 and 3", c, posted)
			}
			// Every copy ran a receive flow to its end: one acked, the
			// others re-acked.
			if n := len(r.rb.flowFree); n != tc.retransmits+1 {
				t.Fatalf("%d receive flows released, want %d", n, tc.retransmits+1)
			}
			if qa.Outstanding() != 0 {
				t.Fatalf("%d WRs still outstanding", qa.Outstanding())
			}
		})
	}
}

// TestRetransmitMeetsLandedWrite is the one-sided twin: extra latency on
// the forward link delays the original write past RetransmitTimeout, so
// the retransmitted copy arrives after the original landed. The write
// lands in the MR once, and the sender sees one OK completion.
func TestRetransmitMeetsLandedWrite(t *testing.T) {
	r := newRig(t, 1)
	r.net.SetLinkLatency("nodeA", "nodeB", 600*time.Microsecond, 0)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	mrB := r.rb.RegisterMR(r.poolB)
	dst, _ := r.poolB.Get("rdma-pool")
	src, _ := r.poolA.Get("cli")
	qa.PostWrite(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64}, RemoteBuf{MR: mrB, Buf: dst})
	r.eng.Run()

	if n := qa.Retransmits(); n != 1 {
		t.Fatalf("retransmits = %d, want 1", n)
	}
	landed := mrB.PollLanded()
	if len(landed) != 1 || landed[0].Buf != dst {
		t.Fatalf("landed = %+v, want the write once", landed)
	}
	sends := r.cqA.Poll(0)
	if len(sends) != 1 || sends[0].Op != OpWrite || sends[0].Status != StatusOK {
		t.Fatalf("sender CQEs = %+v, want one OK write completion", sends)
	}
	if qa.Outstanding() != 0 {
		t.Fatalf("%d WRs still outstanding", qa.Outstanding())
	}
}
