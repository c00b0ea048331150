package rdma

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

// testRig wires two nodes with RNICs, pools, SRQs and CQs.
type testRig struct {
	eng          *sim.Engine
	p            *params.Params
	net          *fabric.Network
	ra, rb       *RNIC
	poolA, poolB *mempool.Pool
	srqA, srqB   *SRQ
	cqA, cqB     *CQ
}

func newRig(t *testing.T, seed int64) *testRig {
	t.Helper()
	p := params.Default()
	eng := sim.NewEngine(seed)
	t.Cleanup(eng.Stop)
	net := fabric.New(eng, p)
	r := &testRig{
		eng:   eng,
		p:     p,
		net:   net,
		poolA: mempool.NewPool("t", 8192, 256, p.HugepageSize),
		poolB: mempool.NewPool("t", 8192, 256, p.HugepageSize),
		srqA:  NewSRQ("t"),
		srqB:  NewSRQ("t"),
	}
	r.ra = NewRNIC(eng, p, "nodeA", net)
	r.rb = NewRNIC(eng, p, "nodeB", net)
	r.cqA = NewCQ(eng)
	r.cqB = NewCQ(eng)
	return r
}

// awaitCQ runs fn once cq holds a completion: at once if it already does,
// else from the wake of the next push to it.
func awaitCQ(cq *CQ, fn func()) {
	if cq.Len() > 0 {
		fn()
		return
	}
	cq.Notify(func() { awaitCQ(cq, fn) })
}

// postRecvs posts n receive buffers from pool into srq, owned by "rq".
func postRecvs(t *testing.T, pool *mempool.Pool, srq *SRQ, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b, err := pool.Get("rq")
		if err != nil {
			t.Fatal(err)
		}
		srq.PostRecv(mempool.Descriptor{Tenant: pool.Tenant(), Buf: b})
	}
}

func TestTwoSidedSendDelivers(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 4)

	src, _ := r.poolA.Get("fnA")
	var sendDone, recvDone time.Duration
	var recvd mempool.Descriptor
	qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64, Seq: 7, Msg: &mempool.Msg{Src: "fnA", Dst: "fnB", Ctx: "req"}})
	awaitCQ(r.cqA, func() {
		e := r.cqA.Poll(1)[0]
		if e.Op != OpSend || e.Status != StatusOK {
			t.Errorf("sender CQE = %+v", e)
		}
		sendDone = r.eng.Now()
	})
	awaitCQ(r.cqB, func() {
		e := r.cqB.Poll(1)[0]
		if e.Op != OpRecv || e.Status != StatusOK || e.Bytes != 64 {
			t.Errorf("recv CQE = %+v", e)
		}
		recvd = e.Desc
		recvDone = r.eng.Now()
	})
	r.eng.Run()
	if recvDone == 0 || sendDone == 0 {
		t.Fatal("completion(s) missing")
	}
	if recvd.Msg.Src != "fnA" || recvd.Msg.Dst != "fnB" || recvd.Seq != 7 || recvd.Msg.Ctx != "req" || recvd.Len != 64 {
		t.Fatalf("metadata not carried: %+v", recvd)
	}
	// Payload landed in a receiver-posted buffer from B's pool.
	if owner, err := r.poolB.OwnerOf(recvd.Buf); err != nil || owner != "rq" {
		t.Fatalf("landed buffer owner = %q, err=%v", owner, err)
	}
	if r.srqB.Consumed() != 1 {
		t.Fatalf("consumed = %d", r.srqB.Consumed())
	}
	// One-way delivery should be single-digit microseconds at 64 B.
	if recvDone > 10*time.Microsecond {
		t.Fatalf("64B one-way delivery %v too slow", recvDone)
	}
}

func TestRNRRetryThenDelivery(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	src, _ := r.poolA.Get("fnA")
	var recvAt time.Duration
	qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
	// Post the receive buffer only after the first arrival attempt.
	r.eng.At(30*time.Microsecond, func() {
		b, _ := r.poolB.Get("rq")
		r.srqB.PostRecv(mempool.Descriptor{Tenant: "t", Buf: b})
	})
	awaitCQ(r.cqB, func() { recvAt = r.eng.Now() })
	r.eng.Run()
	if recvAt == 0 {
		t.Fatal("message never delivered despite retry")
	}
	if recvAt < 30*time.Microsecond {
		t.Fatalf("delivered at %v before buffer was posted", recvAt)
	}
	if r.srqB.RNREvents() == 0 {
		t.Fatal("no RNR events recorded")
	}
}

func TestRNRExhaustionErrorsSender(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	src, _ := r.poolA.Get("fnA")
	var status Status = -1
	qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
	awaitCQ(r.cqA, func() { status = r.cqA.Poll(1)[0].Status })
	r.eng.Run()
	if status != StatusRNRExceeded {
		t.Fatalf("status = %v, want RNR exceeded", status)
	}
	if qa.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after error completion", qa.Outstanding())
	}
}

// echoRTT measures a two-sided echo round trip at the given payload using
// raw verbs (no DNE), mirroring the Fig. 12 microbenchmark setup.
func echoRTT(t *testing.T, payload int) time.Duration {
	r := newRig(t, 1)
	qa, qb := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 8)
	postRecvs(t, r.poolA, r.srqA, 8)

	var rtt time.Duration
	src, _ := r.poolA.Get("cli")
	qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: int32(payload)})
	var client, server func()
	client = func() {
		for _, e := range r.cqA.Poll(0) {
			if e.Op == OpRecv {
				rtt = r.eng.Now()
				return
			}
		}
		awaitCQ(r.cqA, client)
	}
	server = func() {
		for _, e := range r.cqB.Poll(0) {
			if e.Op == OpRecv {
				// Echo straight back from a server buffer.
				buf, _ := r.poolB.Get("srv")
				qb.PostSend(mempool.Descriptor{Tenant: "t", Buf: buf, Len: int32(e.Bytes)})
			}
		}
		awaitCQ(r.cqB, server)
	}
	awaitCQ(r.cqA, client)
	awaitCQ(r.cqB, server)
	r.eng.RunUntil(time.Second)
	if rtt == 0 {
		t.Fatal("echo never completed")
	}
	return rtt
}

// TestEchoLatencyCalibration pins the model near the paper's measurements:
// two-sided echo ~8.4us at 64B and ~11.6us at 4KB (Fig. 12), within a
// generous +-35% band so parameter nudges don't break the build.
func TestEchoLatencyCalibration(t *testing.T) {
	r64 := echoRTT(t, 64)
	r4k := echoRTT(t, 4096)
	check := func(name string, got, want time.Duration) {
		lo := want * 65 / 100
		hi := want * 135 / 100
		if got < lo || got > hi {
			t.Errorf("%s RTT = %v, want within [%v, %v]", name, got, lo, hi)
		}
	}
	check("64B", r64, 8400*time.Nanosecond)
	check("4KB", r4k, 11600*time.Nanosecond)
	if r4k <= r64 {
		t.Errorf("4KB RTT %v not larger than 64B RTT %v", r4k, r64)
	}
}

func TestOneSidedWriteLandsWithoutReceiverCQE(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	mrB := r.rb.RegisterMR(r.poolB)
	dst, _ := r.poolB.Get("rdma-pool")
	src, _ := r.poolA.Get("cli")

	var landAt time.Duration
	qa.PostWrite(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64}, RemoteBuf{MR: mrB, Buf: dst})
	awaitCQ(r.cqA, func() {
		e := r.cqA.Poll(1)[0]
		if e.Op != OpWrite || e.Status != StatusOK {
			t.Errorf("write CQE = %+v", e)
		}
	})
	r.eng.Run()
	if r.cqB.Len() != 0 {
		t.Fatal("one-sided write generated a receiver CQE")
	}
	landed := mrB.PollLanded()
	if len(landed) != 1 || landed[0].Bytes != 64 || landed[0].Buf != dst {
		t.Fatalf("landed = %+v", landed)
	}
	landAt = landed[0].At
	if landAt == 0 || landAt > 10*time.Microsecond {
		t.Fatalf("one-sided 64B landed at %v", landAt)
	}
	if mrB.LandedCount() != 0 {
		t.Fatal("PollLanded did not drain")
	}
}

func TestOneSidedFasterThanTwoSidedOneWay(t *testing.T) {
	// A single one-sided write ("as little as 4us", §4.1.2) must beat a
	// two-sided send one-way, since it skips receive matching.
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 4)
	mrB := r.rb.RegisterMR(r.poolB)
	dst, _ := r.poolB.Get("rdma-pool")

	var writeLanded, sendDelivered time.Duration
	src, _ := r.poolA.Get("cli")
	qa.PostWrite(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64}, RemoteBuf{MR: mrB, Buf: dst})
	r.eng.RunUntil(100 * time.Microsecond)
	if l := mrB.PollLanded(); len(l) == 1 {
		writeLanded = l[0].At
	} else {
		t.Fatal("write did not land")
	}

	r2 := newRig(t, 2)
	qa2, _ := Connect(r2.ra, r2.rb, "t", r2.srqA, r2.srqB, r2.cqA, r2.cqB)
	postRecvs(t, r2.poolB, r2.srqB, 4)
	src2, _ := r2.poolA.Get("cli")
	qa2.PostSend(mempool.Descriptor{Tenant: "t", Buf: src2, Len: 64})
	awaitCQ(r2.cqB, func() { sendDelivered = r2.eng.Now() })
	r2.eng.RunUntil(100 * time.Microsecond)
	if sendDelivered == 0 {
		t.Fatal("send not delivered")
	}
	if writeLanded >= sendDelivered {
		t.Fatalf("one-sided landed %v, two-sided delivered %v — want one-sided faster", writeLanded, sendDelivered)
	}
}

func TestReadRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	mrB := r.rb.RegisterMR(r.poolB)
	dst, _ := r.poolB.Get("x")
	var done time.Duration
	qa.PostRead(4096, RemoteBuf{MR: mrB, Buf: dst})
	awaitCQ(r.cqA, func() {
		e := r.cqA.Poll(1)[0]
		if e.Op != OpRead || e.Bytes != 4096 {
			t.Errorf("read CQE = %+v", e)
		}
		done = r.eng.Now()
	})
	r.eng.Run()
	if done == 0 || done > 20*time.Microsecond {
		t.Fatalf("4KB read RTT = %v", done)
	}
}

func TestCASLockSemantics(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	r.rb.SetWord("lock", 0)
	var first, second CASResult
	qa.PostCAS("lock", 0, 1, func(res CASResult) {
		first = res
		qa.PostCAS("lock", 0, 1, func(res CASResult) { second = res })
	})
	r.eng.Run()
	if !first.Swapped || first.Old != 0 {
		t.Fatalf("first CAS = %+v", first)
	}
	if second.Swapped || second.Old != 1 {
		t.Fatalf("second CAS should fail on held lock: %+v", second)
	}
	if r.rb.Word("lock") != 1 {
		t.Fatalf("lock word = %d", r.rb.Word("lock"))
	}
}

func TestQPCacheThrashingPenalty(t *testing.T) {
	// With far more active QPs than cache entries, per-WR cost rises.
	p := params.Default()
	p.NICCacheActiveQPs = 4
	measure := func(nQPs int) time.Duration {
		eng := sim.NewEngine(1)
		defer eng.Stop()
		net := fabric.New(eng, p)
		ra := NewRNIC(eng, p, "a", net)
		rb := NewRNIC(eng, p, "b", net)
		poolA := mempool.NewPool("t", 4096, 4096, p.HugepageSize)
		poolB := mempool.NewPool("t", 4096, 4096, p.HugepageSize)
		srqB := NewSRQ("t")
		cqA, cqB := NewCQ(eng), NewCQ(eng)
		var qps []*QP
		for i := 0; i < nQPs; i++ {
			qa, _ := Connect(ra, rb, "t", nil, srqB, cqA, cqB)
			qps = append(qps, qa)
		}
		for i := 0; i < 2048; i++ {
			b, err := poolB.Get("rq")
			if err != nil {
				t.Fatal(err)
			}
			srqB.PostRecv(mempool.Descriptor{Tenant: "t", Buf: b})
		}
		var last time.Duration
		for i := 0; i < 1024; i++ {
			src, err := poolA.Get("cli")
			if err != nil {
				t.Fatal(err)
			}
			qps[i%len(qps)].PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
		}
		got := 0
		var sink func()
		sink = func() {
			got += len(cqB.Poll(0))
			last = eng.Now()
			if got < 1024 {
				awaitCQ(cqB, sink)
			}
		}
		awaitCQ(cqB, sink)
		eng.RunUntil(time.Second)
		return last
	}
	fit := measure(2)     // fits in cache
	thrash := measure(64) // thrashes
	if thrash <= fit {
		t.Fatalf("cache thrash (%v) not slower than cache fit (%v)", thrash, fit)
	}
}

func TestConnPoolEstablishAndPick(t *testing.T) {
	r := newRig(t, 1)
	var pa *ConnPool
	EstablishPair(r.eng, r.p, "t", r.ra, r.rb, 8, r.srqA, r.srqB, r.cqA, r.cqB, func(a, _ *ConnPool) { pa = a })
	r.eng.Run()
	if pa == nil {
		t.Fatal("pool not established")
	}
	if r.eng.Now() < r.p.QPSetupTime {
		t.Fatalf("setup finished at %v, want >= %v", r.eng.Now(), r.p.QPSetupTime)
	}
	if pa.Size() != 8 {
		t.Fatalf("size = %d", pa.Size())
	}
	if pa.ActiveCount() != 1 {
		t.Fatalf("active = %d, want 1 warm connection", pa.ActiveCount())
	}
	qp := pa.Pick()
	if qp == nil || !qp.Active() {
		t.Fatal("Pick returned unusable QP")
	}
}

func TestConnPoolActivatesUnderCongestion(t *testing.T) {
	r := newRig(t, 1)
	var pa *ConnPool
	EstablishPair(r.eng, r.p, "t", r.ra, r.rb, 4, r.srqA, r.srqB, r.cqA, r.cqB, func(a, _ *ConnPool) {
		pa = a
		postRecvs(t, r.poolB, r.srqB, 256)
		// Flood: outstanding on the single active QP passes the threshold.
		for i := 0; i < 64; i++ {
			src, err := r.poolA.Get("cli")
			if err != nil {
				t.Error(err)
				return
			}
			qp := pa.Pick()
			qp.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 64})
		}
	})
	r.eng.Run()
	if pa.Activations() == 0 {
		t.Fatal("no shadow QP activated under congestion")
	}
	if pa.ActiveCount() < 2 {
		t.Fatalf("active = %d, want >= 2", pa.ActiveCount())
	}
	// After traffic drains, Shrink returns to the floor.
	n := pa.Shrink()
	if n == 0 || pa.ActiveCount() != 1 {
		t.Fatalf("shrink removed %d, active now %d", n, pa.ActiveCount())
	}
}

// TestConnPoolActiveCountMatchesScan holds the counted ActiveCount to a
// scan of the pool's QPs: both pools of an EstablishPair go through random
// sequences of loaded Picks (bursts that activate shadows), Shrink,
// ForceError, Repair and QP Reset, with time passing between steps.
func TestConnPoolActiveCountMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := newRig(t, seed)
		var pools [2]*ConnPool
		EstablishPair(r.eng, r.p, "t", r.ra, r.rb, 6, r.srqA, r.srqB, r.cqA, r.cqB, func(a, b *ConnPool) {
			pools = [2]*ConnPool{a, b}
		})
		r.eng.Run()
		postRecvs(t, r.poolA, r.srqA, 128)
		postRecvs(t, r.poolB, r.srqB, 128)
		src := [2]*mempool.Pool{r.poolA, r.poolB}
		// drain recycles a side's completions: send sources back to the
		// pool, landed receive buffers back to the SRQ.
		drain := func(cq *CQ, pool *mempool.Pool, srq *SRQ) {
			for _, e := range cq.Poll(0) {
				switch e.Op {
				case OpSend:
					if err := pool.Put(e.Desc.Buf, "cli"); err != nil {
						t.Fatal(err)
					}
				case OpRecv:
					srq.PostRecv(mempool.Descriptor{Tenant: "t", Buf: e.Desc.Buf})
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		check := func(step int, op string) {
			t.Helper()
			for side, cp := range pools {
				n := 0
				for _, qp := range cp.Conns() {
					if qp.Active() {
						n++
					}
				}
				if got := cp.ActiveCount(); got != n {
					t.Fatalf("seed %d step %d (%s): pool %d ActiveCount = %d, a scan finds %d", seed, step, op, side, got, n)
				}
			}
		}
		check(-1, "establish")
		for step := 0; step < 300; step++ {
			side := rng.Intn(2)
			cp := pools[side]
			var op string
			switch rng.Intn(6) {
			case 0, 1:
				op = "pick"
				for i := rng.Intn(12) + 1; i > 0; i-- {
					b, err := src[side].Get("cli")
					if err != nil {
						break // every source buffer is in flight
					}
					cp.Pick().PostSend(mempool.Descriptor{Tenant: "t", Buf: b, Len: 256})
				}
			case 2:
				op = "shrink"
				cp.Shrink()
			case 3:
				op = "force-error"
				cp.ForceError(rng.Intn(3))
			case 4:
				op = "repair"
				cp.Repair()
			case 5:
				op = "reset"
				if qp := cp.Conns()[rng.Intn(cp.Size())]; qp.Errored() {
					qp.Reset()
				}
			}
			check(step, op)
			r.eng.RunUntil(r.eng.Now() + time.Duration(rng.Intn(200))*time.Microsecond)
			drain(r.cqA, r.poolA, r.srqA)
			drain(r.cqB, r.poolB, r.srqB)
			check(step, "run")
		}
	}
}

// TestKeeperWakeSources pins when the RNIC's keeper hook fires: once when
// an SRQ's consumed count leaves 0 (not again until ConsumedReset), on a
// shadow activation, and when a QP errors, forced or by retry exhaustion.
func TestKeeperWakeSources(t *testing.T) {
	r := newRig(t, 1)
	var pool *ConnPool
	EstablishPair(r.eng, r.p, "t", r.ra, r.rb, 4, r.srqA, r.srqB, r.cqA, r.cqB, func(a, _ *ConnPool) { pool = a })
	r.eng.Run()
	wakesA, wakesB := 0, 0
	r.ra.SetKeeperWake(func() { wakesA++ })
	r.rb.SetKeeperWake(func() { wakesB++ })
	postRecvs(t, r.poolB, r.srqB, 32)
	send := func(n int) {
		for i := 0; i < n; i++ {
			b, err := r.poolA.Get("cli")
			if err != nil {
				t.Fatal(err)
			}
			pool.Pick().PostSend(mempool.Descriptor{Tenant: "t", Buf: b, Len: 64})
		}
	}
	send(3)
	r.eng.Run()
	if wakesA != 0 || wakesB != 1 {
		t.Fatalf("three receives woke A %d and B %d times, want 0 and 1", wakesA, wakesB)
	}
	r.srqB.ConsumedReset()
	send(9) // the ninth Pick finds the active QP congested
	if wakesA != 1 || pool.Activations() != 1 {
		t.Fatalf("activation: A woke %d times with %d activations, want 1 and 1", wakesA, pool.Activations())
	}
	r.eng.Run()
	if wakesB != 2 {
		t.Fatalf("receives after ConsumedReset woke B %d times in all, want 2", wakesB)
	}
	pool.ForceError(1)
	if wakesA != 2 {
		t.Fatalf("forced error: A woke %d times in all, want 2", wakesA)
	}
	r.net.SetDown("nodeB", true)
	send(1)
	r.eng.Run()
	if wakesA != 3 {
		t.Fatalf("retry exhaustion: A woke %d times in all, want 3", wakesA)
	}
}

func TestMTTOverflowPenalty(t *testing.T) {
	// A hugepage-backed pool stays within the MTT cache; the same pool on
	// 4K pages overflows it and slows every WR (§3.4).
	measure := func(pageSize int) time.Duration {
		p := params.Default()
		eng := sim.NewEngine(1)
		defer eng.Stop()
		net := fabric.New(eng, p)
		ra := NewRNIC(eng, p, "a", net)
		rb := NewRNIC(eng, p, "b", net)
		// 64 MB pool: 32 hugepages vs 16384 4K pages.
		poolA := mempool.NewPool("t", 16384, 4096, pageSize)
		poolB := mempool.NewPool("t", 16384, 4096, pageSize)
		ra.RegisterMR(poolA)
		rb.RegisterMR(poolB)
		srqB := NewSRQ("t")
		cqA, cqB := NewCQ(eng), NewCQ(eng)
		qa, _ := Connect(ra, rb, "t", nil, srqB, cqA, cqB)
		for i := 0; i < 64; i++ {
			b, err := poolB.Get("rq")
			if err != nil {
				t.Fatal(err)
			}
			srqB.PostRecv(mempool.Descriptor{Tenant: "t", Buf: b})
		}
		var done time.Duration
		var send func(i int)
		send = func(i int) {
			if i == 32 {
				return
			}
			src, err := poolA.Get("cli")
			if err != nil {
				t.Error(err)
				return
			}
			qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 1024})
			awaitCQ(cqA, func() {
				cqA.Poll(0)
				done = eng.Now()
				send(i + 1)
			})
		}
		eng.Immediate(func() { send(0) })
		eng.RunUntil(time.Second)
		return done
	}
	huge := measure(2 << 20)
	small := measure(4096)
	if small <= huge {
		t.Fatalf("4K-page run (%v) not slower than hugepage run (%v)", small, huge)
	}
}

// Property: two-sided traffic conserves messages and buffers — every OK
// send yields exactly one recv completion, and after a full drain the only
// allocated buffers are the still-posted receive ring.
func TestTwoSidedConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, szRaw uint16) bool {
		n := int(nRaw%60) + 1
		size := int(szRaw%8000) + 16
		p := params.Default()
		eng := sim.NewEngine(seed)
		defer eng.Stop()
		net := fabric.New(eng, p)
		ra := NewRNIC(eng, p, "a", net)
		rb := NewRNIC(eng, p, "b", net)
		poolA := mempool.NewPool("t", 8192, 256, p.HugepageSize)
		poolB := mempool.NewPool("t", 8192, 256, p.HugepageSize)
		srqB := NewSRQ("t")
		cqA, cqB := NewCQ(eng), NewCQ(eng)
		qa, _ := Connect(ra, rb, "t", nil, srqB, cqA, cqB)
		for i := 0; i < n+8; i++ {
			b, err := poolB.Get("rq")
			if err != nil {
				return false
			}
			srqB.PostRecv(mempool.Descriptor{Tenant: "t", Buf: b})
		}
		sendOK, recvOK := 0, 0
		var send func(i int)
		send = func(i int) {
			if i == n {
				return
			}
			src, err := poolA.Get("cli")
			if err != nil {
				return
			}
			qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: int32(size), Seq: uint64(i)})
			eng.After(time.Duration(eng.Rand().Intn(5000))*time.Nanosecond, func() { send(i + 1) })
		}
		eng.Immediate(func() { send(0) })
		var drainA, drainB func()
		drainA = func() {
			for _, e := range cqA.Poll(0) {
				if e.Op == OpSend && e.Status == StatusOK {
					sendOK++
					if poolA.Put(e.Desc.Buf, "cli") != nil {
						t.Error("sender recycle failed")
					}
				}
			}
			awaitCQ(cqA, drainA)
		}
		drainB = func() {
			for _, e := range cqB.Poll(0) {
				if e.Op == OpRecv {
					recvOK++
					if poolB.Transfer(e.Desc.Buf, "rq", "srv") != nil || poolB.Put(e.Desc.Buf, "srv") != nil {
						t.Error("receiver recycle failed")
					}
				}
			}
			awaitCQ(cqB, drainB)
		}
		eng.Immediate(func() { awaitCQ(cqA, drainA) })
		eng.Immediate(func() { awaitCQ(cqB, drainB) })
		eng.RunUntil(time.Second)
		return sendOK == n && recvOK == n &&
			poolA.InUse() == 0 && poolB.InUse() == srqB.Posted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
