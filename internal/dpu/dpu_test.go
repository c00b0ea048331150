package dpu

import (
	"testing"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

func newDPU(t *testing.T) (*sim.Engine, *params.Params, *DPU) {
	t.Helper()
	p := params.Default()
	eng := sim.NewEngine(1)
	t.Cleanup(eng.Stop)
	net := fabric.New(eng, p)
	return eng, p, New(eng, p, "node1", net)
}

func TestSoCDMASmallOpLatency(t *testing.T) {
	eng, p, d := newDPU(t)
	var done time.Duration
	d.SoCDMA().Transfer(64, func() { done = eng.Now() })
	eng.Run()
	// "only 2.6us for 64B DMA read" — plus the tiny per-byte part.
	if done < p.SoCDMAPerOp || done > p.SoCDMAPerOp+time.Microsecond {
		t.Fatalf("64B SoC DMA = %v, want ~%v", done, p.SoCDMAPerOp)
	}
}

func TestSoCDMAQueuesUnderConcurrency(t *testing.T) {
	eng, _, d := newDPU(t)
	var finishes []time.Duration
	for i := 0; i < 4; i++ {
		d.SoCDMA().Transfer(1024, func() { finishes = append(finishes, eng.Now()) })
	}
	eng.Run()
	if len(finishes) != 4 {
		t.Fatalf("finished %d transfers", len(finishes))
	}
	// Single FIFO channel: each waits behind the previous.
	for i := 1; i < len(finishes); i++ {
		if finishes[i] <= finishes[i-1] {
			t.Fatalf("SoC DMA not serialized: %v", finishes)
		}
	}
	if d.SoCDMA().Ops() != 4 {
		t.Fatalf("ops = %d", d.SoCDMA().Ops())
	}
}

func TestMMapExportRegistersHostMemory(t *testing.T) {
	_, p, d := newDPU(t)
	pool := mempool.NewPool("tenant_1", 4096, 512, p.HugepageSize)
	// doca_mmap_create_from_export: the DPU's RNIC registers the host pool.
	mr := d.RNIC().RegisterMR(pool)
	if mr.Pool != pool {
		t.Fatal("MR does not reference the host pool")
	}
	if mr.Node() != "node1" {
		t.Fatalf("MR node = %v", mr.Node())
	}
	if mr.Pages() != pool.Hugepages() {
		t.Fatalf("MR pages = %d, want %d", mr.Pages(), pool.Hugepages())
	}
}

func TestComchRoundTripLatencyOrdering(t *testing.T) {
	// Fig. 9 shape at one function: Comch-P < Comch-E < TCP round trips.
	rtt := func(mode ChannelMode) time.Duration {
		p := params.Default()
		eng := sim.NewEngine(1)
		defer eng.Stop()
		work := sim.NewSignal(eng)
		h2d, d2h := NewComch(eng, p, mode, work.Pulse)
		hostCore := sim.NewProcessor(eng, "host", p.HostCoreSpeed)
		dpuCore := sim.NewProcessor(eng, "dne-worker", p.DPUNetSpeed)
		var rtt time.Duration
		var await, serve func()
		await = func() {
			if _, ok := d2h.TryRecv(); !ok {
				d2h.Notify(await)
				return
			}
			hostCore.Run(mode.HostWakeupCost(p), func() { rtt = eng.Now() })
		}
		hostCore.Run(mode.SendCost(p), func() {
			h2d.Send(mempool.Descriptor{Tenant: "t"})
			await()
		})
		serve = func() {
			d, ok := h2d.TryRecv()
			if !ok {
				work.Notify(serve)
				return
			}
			dpuCore.Run(mode.DNERecvCost(p, 1)+500*time.Nanosecond, func() {
				d2h.Send(d)
				serve()
			})
		}
		eng.Immediate(serve)
		eng.RunUntil(time.Second)
		if rtt == 0 {
			t.Fatalf("%v round trip never completed", mode)
		}
		return rtt
	}
	p := rtt(ComchP)
	e := rtt(ComchE)
	tcp := rtt(ChannelTCP)
	if !(p < e && e < tcp) {
		t.Fatalf("RTT ordering violated: Comch-P=%v Comch-E=%v TCP=%v", p, e, tcp)
	}
	// "Comch-P cuts latency by >8x versus TCP" — allow a loose band.
	if float64(tcp)/float64(p) < 4 {
		t.Fatalf("TCP/Comch-P ratio = %.1f, want >> 1", float64(tcp)/float64(p))
	}
	// "Comch-E ... outperforms TCP by 2.7x-3.8x".
	ratio := float64(tcp) / float64(e)
	if ratio < 1.8 || ratio > 6 {
		t.Fatalf("TCP/Comch-E ratio = %.1f, want ~2.7-3.8", ratio)
	}
}

func TestComchPProgressEngineScalesWithEndpoints(t *testing.T) {
	p := params.Default()
	one := ComchP.DNERecvCost(p, 1)
	ten := ComchP.DNERecvCost(p, 10)
	if ten <= one {
		t.Fatalf("progress engine cost flat: 1 ep = %v, 10 eps = %v", one, ten)
	}
	if ComchE.DNERecvCost(p, 10) != ComchE.DNERecvCost(p, 1) {
		t.Fatal("Comch-E recv cost should not scale with endpoints")
	}
}

func TestEndpointFIFO(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	h2d, _ := NewComch(eng, p, ComchE, nil)
	for i := 0; i < 5; i++ {
		h2d.Send(mempool.Descriptor{Seq: uint64(i)})
	}
	var got []uint64
	eng.After(time.Millisecond, func() {
		for {
			d, ok := h2d.TryRecv()
			if !ok {
				break
			}
			got = append(got, d.Seq)
		}
	})
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("got %d descriptors", len(got))
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
	if h2d.Sent() != 5 {
		t.Fatalf("sent = %d", h2d.Sent())
	}
}

// TestChannelModeCosts holds each channel variant's cost model to its
// parameters: the delivery latency of both channels NewComch returns (and
// the wake hook on the host -> DPU one only), the send and host-wakeup
// costs, and the DNE receive cost at one and at ten endpoints.
func TestChannelModeCosts(t *testing.T) {
	p := params.Default()
	for _, tc := range []struct {
		mode                ChannelMode
		name                string
		latency, send, wake time.Duration
		recv1, recv10       time.Duration
	}{
		{ComchE, "Comch-E", p.ComchEDeliver, p.ComchSendCost, p.ComchEWakeup, 0, 0},
		{ComchP, "Comch-P", p.ComchPDeliver, p.ComchSendCost, 0, p.ComchPPerEndpoint, 10 * p.ComchPPerEndpoint},
		{ChannelTCP, "TCP", p.LoopbackTCPRTT / 2, p.LoopbackTCPCost, p.LoopbackTCPCost, p.LoopbackTCPCost, p.LoopbackTCPCost},
	} {
		m := tc.mode
		if m.String() != tc.name {
			t.Errorf("%d: String() = %q, want %q", m, m, tc.name)
		}
		if got := m.SendCost(p); got != tc.send {
			t.Errorf("%v: send cost %v, want %v", m, got, tc.send)
		}
		if got := m.HostWakeupCost(p); got != tc.wake {
			t.Errorf("%v: host wakeup cost %v, want %v", m, got, tc.wake)
		}
		if got := m.DNERecvCost(p, 1); got != tc.recv1 {
			t.Errorf("%v: DNE receive cost at 1 endpoint %v, want %v", m, got, tc.recv1)
		}
		if got := m.DNERecvCost(p, 10); got != tc.recv10 {
			t.Errorf("%v: DNE receive cost at 10 endpoints %v, want %v", m, got, tc.recv10)
		}

		eng := sim.NewEngine(1)
		var woke, toDNE, toHost time.Duration
		wakes := 0
		h2d, d2h := NewComch(eng, p, m, func() { wakes, woke = wakes+1, eng.Now() })
		const at = time.Microsecond
		eng.At(at, func() {
			h2d.Send(mempool.Descriptor{})
			d2h.Send(mempool.Descriptor{})
		})
		// arrival records when c's first descriptor is taken.
		arrival := func(c *ipc.Chan, got *time.Duration) {
			var rx func()
			rx = func() {
				if _, ok := c.TryRecv(); !ok {
					c.Notify(rx)
					return
				}
				*got = eng.Now()
			}
			eng.Immediate(rx)
		}
		arrival(h2d, &toDNE)
		arrival(d2h, &toHost)
		eng.Run()
		eng.Stop()
		if want := at + tc.latency; toDNE != want || toHost != want {
			t.Errorf("%v: host->DPU took at %v, DPU->host at %v, want both at %v", m, toDNE, toHost, want)
		}
		if wakes != 1 || woke != at+tc.latency {
			t.Errorf("%v: wake ran %d times, last at %v, want once at %v", m, wakes, woke, at+tc.latency)
		}
	}
}
