package dpu

import (
	"testing"
	"time"

	"nadino/internal/fabric"
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
	return eng, p, New(eng, p, "node1", net, 2)
}

func TestDPUCoresAreWimpy(t *testing.T) {
	eng, p, d := newDPU(t)
	var hostDone, dpuDone time.Duration
	host := sim.NewProcessor(eng, "host", p.HostCoreSpeed)
	host.Run(10*time.Microsecond, func() { hostDone = eng.Now() })
	d.Core(0).Run(10*time.Microsecond, func() { dpuDone = eng.Now() })
	eng.Run()
	if dpuDone <= hostDone {
		t.Fatalf("DPU core (%v) not slower than host core (%v)", dpuDone, hostDone)
	}
	ratio := float64(dpuDone) / float64(hostDone)
	if ratio < 1.8 || ratio > 3.0 {
		t.Fatalf("DPU slowdown ratio = %.2f, want ~2.2x", ratio)
	}
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
		ep := NewEndpoint(eng, p, mode, 0, "fn", "t", work)
		hostCore := sim.NewProcessor(eng, "host", p.HostCoreSpeed)
		dpuCore := sim.NewProcessor(eng, "dpu", p.DPUCoreSpeed)
		var rtt time.Duration
		var await, serve func()
		await = func() {
			if _, ok := ep.TryRecvOnHost(); !ok {
				ep.NotifyOnHost(await)
				return
			}
			hostCore.Run(ep.HostWakeupCost(), func() { rtt = eng.Now() })
		}
		hostCore.Run(ep.SendCost(), func() {
			ep.SendToDNE(mempool.Descriptor{Tenant: "t"})
			await()
		})
		serve = func() {
			d, ok := ep.TryRecvFromHost()
			if !ok {
				work.Notify(serve)
				return
			}
			dpuCore.Run(ep.DNERecvCost(1)+500*time.Nanosecond, func() {
				ep.SendToHost(d)
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
	eng := sim.NewEngine(1)
	defer eng.Stop()
	ep := NewEndpoint(eng, p, ComchP, 0, "fn", "t", nil)
	one := ep.DNERecvCost(1)
	ten := ep.DNERecvCost(10)
	if ten <= one {
		t.Fatalf("progress engine cost flat: 1 ep = %v, 10 eps = %v", one, ten)
	}
	if e := NewEndpoint(eng, p, ComchE, 0, "fn", "t", nil); e.DNERecvCost(10) != e.DNERecvCost(1) {
		t.Fatal("Comch-E recv cost should not scale with endpoints")
	}
}

func TestComchPinsHostCore(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	if !NewEndpoint(eng, p, ComchP, 0, "f", "t", nil).PinsHostCore() {
		t.Fatal("Comch-P must pin a host core")
	}
	if NewEndpoint(eng, p, ComchE, 0, "f", "t", nil).PinsHostCore() {
		t.Fatal("Comch-E must not pin a host core")
	}
}

func TestEndpointFIFO(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	ep := NewEndpoint(eng, p, ComchE, 0, "fn", "t", nil)
	for i := 0; i < 5; i++ {
		ep.SendToDNE(mempool.Descriptor{Seq: uint64(i)})
	}
	var got []uint64
	eng.After(time.Millisecond, func() {
		for {
			d, ok := ep.TryRecvFromHost()
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
	toDNE, _ := ep.Stats()
	if toDNE != 5 {
		t.Fatalf("stats toDNE = %d", toDNE)
	}
}
