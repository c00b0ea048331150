package dne

import (
	"testing"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

// TestEngineRecoversFromLinkBlip drives a closed-loop echo workload through
// a mid-run link outage: the engines must retransmit at the transport
// level, retry descriptors at the data-plane level, repair errored QPs, and
// finish every request without leaking a buffer. The outage comes from a
// chaos.Schedule — the same fault path the resilience experiments use.
func TestEngineRecoversFromLinkBlip(t *testing.T) {
	r := newPairRig(t, 7, params.Default())
	net := r.net
	r.startEchoServer(t)

	// Eight concurrent request streams keep traffic in flight in both
	// directions when the outage hits. They share the client port; a demux
	// loop routes responses back by sequence number.
	const streams = 8
	const perStream = 150
	const requests = streams * perStream
	completed := 0
	waiters := make(map[uint64]*sim.Queue[mempool.Descriptor])
	var demux func(d mempool.Descriptor)
	demux = func(d mempool.Descriptor) {
		if w, ok := waiters[d.Seq]; ok {
			delete(waiters, d.Seq)
			w.TryPut(d)
		} else if err := r.poolA.Put(d.Buf, "cli"); err != nil {
			// Duplicate delivery (at-least-once retry): recycle it so the
			// leak check stays exact.
			t.Error(err)
		}
		recvOn(r.portCli, r.coreA, demux)
	}
	r.eng.Immediate(func() { recvOn(r.portCli, r.coreA, demux) })
	var seq uint64
	for s := 0; s < streams; s++ {
		respQ := sim.NewQueue[mempool.Descriptor](r.eng, 0)
		var issue func(i int)
		issue = func(i int) {
			if i == perStream {
				return
			}
			buf, err := r.poolA.Get("cli")
			if err != nil {
				t.Error(err)
				return
			}
			seq++
			waiters[seq] = respQ
			d := mempool.Descriptor{
				Tenant: rigTenant, Buf: buf, Len: 1024,
				Seq: seq, Msg: &mempool.Msg{Src: "cli", Dst: "srv"},
			}
			var await func()
			await = func() {
				resp, ok := respQ.TryGet()
				if !ok {
					respQ.Notify(await)
					return
				}
				completed++
				if err := r.poolA.Put(resp.Buf, "cli"); err != nil {
					t.Error(err)
					return
				}
				issue(i + 1)
			}
			sendOn(r.portCli, r.coreA, d, func(err error) {
				if err != nil {
					t.Error(err)
					return
				}
				await()
			})
		}
		r.eng.Immediate(func() { r.onReady(func() { issue(0) }) })
	}

	// Outage: node B unreachable for 8ms, early in the workload.
	blipStart := r.p.QPSetupTime + 500*time.Microsecond
	in := chaos.NewInjector(r.eng, net, 7)
	in.Install(chaos.Schedule{
		{At: blipStart, For: 8 * time.Millisecond, Fault: chaos.NodeDown{Node: "nodeB"}},
	})

	r.eng.RunUntil(5 * time.Second)
	if completed != requests {
		t.Fatalf("completed %d of %d requests across the outage", completed, requests)
	}
	if net.Drops() == 0 {
		t.Fatal("the blip dropped nothing — outage did not bite")
	}
	_, _, _, _, serrA := r.ea.Stats()
	_, _, _, _, serrB := r.eb.Stats()
	retriedA, droppedA := r.ea.RetryStats()
	retriedB, droppedB := r.eb.RetryStats()
	if serrA+serrB == 0 || retriedA+retriedB == 0 {
		t.Fatalf("engines saw no send errors (%d/%d) or retries (%d/%d) across the outage",
			serrA, serrB, retriedA, retriedB)
	}
	if droppedA+droppedB != 0 {
		t.Fatalf("%d descriptors exhausted the retry budget during a short blip", droppedA+droppedB)
	}
	// No leaks: only the posted RQ rings remain allocated.
	r.eng.RunUntil(r.eng.Now() + 500*time.Millisecond)
	if got, want := r.poolA.InUse(), r.ea.SRQ(rigTenant).Posted(); got != want {
		t.Fatalf("pool A in use = %d, want %d", got, want)
	}
	if got, want := r.poolB.InUse(), r.eb.SRQ(rigTenant).Posted(); got != want {
		t.Fatalf("pool B in use = %d, want %d", got, want)
	}
}

// TestKeeperRepaysReplenishDebt pins the fix for a starvation bug the chaos
// suite flushed out: the keeper reads the SRQ's ConsumedReset counter before
// it knows whether the tenant pool can actually supply buffers, so any
// replenish shortfall during a pool squeeze must be carried forward as debt.
// Before the fix the count was simply lost and the RQ ring stayed starved
// forever after the squeeze ended.
func TestKeeperRepaysReplenishDebt(t *testing.T) {
	r := newPairRig(t, 11, params.Default())
	const sends = 64
	finished := false
	var posted0 int
	var held []mempool.Buffer
	var release func()
	var send func(i int)
	send = func(i int) {
		if i == sends {
			// Several keeper rounds observe the consumed slots while the
			// pool is empty: the ring must shrink and stay short.
			r.eng.After(2*time.Millisecond, release)
			return
		}
		buf, err := r.poolA.Get("cli")
		if err != nil {
			t.Error(err)
			return
		}
		d := mempool.Descriptor{
			Tenant: rigTenant, Buf: buf, Len: 1024,
			Seq: uint64(i), Msg: &mempool.Msg{Src: "cli", Dst: "srv"},
		}
		sendOn(r.portCli, r.coreA, d, func(err error) {
			if err != nil {
				t.Error(err)
				return
			}
			send(i + 1)
		})
	}
	release = func() {
		if got := r.eb.SRQ(rigTenant).Posted(); got >= posted0 {
			t.Errorf("squeeze did not bite: posted %d >= %d", got, posted0)
		}
		// Release the squeeze; the keeper must repay the full shortfall.
		for _, b := range held {
			if err := r.poolB.Put(b, "hog"); err != nil {
				t.Error(err)
				return
			}
		}
		r.eng.After(2*time.Millisecond, func() {
			if got := r.eb.SRQ(rigTenant).Posted(); got != posted0 {
				t.Errorf("RQ ring not repaid after the squeeze: posted %d, want %d", got, posted0)
			}
			finished = true
		})
	}
	r.onReady(func() {
		// Let the keeper finish initial posting.
		r.eng.After(time.Millisecond, func() {
			if posted0 = r.eb.SRQ(rigTenant).Posted(); posted0 == 0 {
				t.Error("RQ ring empty before the squeeze")
				return
			}
			// Squeeze: hold every free buffer of pool B so the keeper
			// cannot replenish.
			for {
				b, err := r.poolB.Get("hog")
				if err != nil {
					break
				}
				held = append(held, b)
			}
			// Consume RQ slots with one-way messages that land at the srv
			// port (nobody drains it, so nothing flows back into the pool).
			send(0)
		})
	})
	r.eng.RunUntil(time.Second)
	if !finished {
		t.Fatal("squeeze scenario did not run to completion")
	}
}
