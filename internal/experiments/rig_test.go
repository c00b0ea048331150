package experiments

import (
	"testing"
	"time"

	"nadino/internal/dne"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// TestEchoRigsReturnBuffers stops each echo rig's load through its
// clients' active gate and lets the engine drain: every buffer must come
// home, so each pool's in-use count equals its posted receive ring (the
// res-* leakCheck rule).
func TestEchoRigsReturnBuffers(t *testing.T) {
	type ring struct {
		pool *mempool.Pool
		srq  *rdma.SRQ
	}
	verbs := func(v *verbsPair) []ring { return []ring{{v.poolA, v.srqA}, {v.poolB, v.srqB}} }
	for _, tc := range []struct {
		name  string
		build func(p *params.Params, active func(time.Duration) bool) (*sim.Engine, *echoLoad, []ring)
	}{
		{"dne", func(p *params.Params, active func(time.Duration) bool) (*sim.Engine, *echoLoad, []ring) {
			r := newDNERig(p, 1, dne.OffPath, dne.SchedDWRR, []tenantSpec{{name: "t", weight: 1}})
			st := r.startEchoClients("t", 4, 1024, active)
			return r.eng, st, []ring{{r.pools["t"][0], r.ea.SRQ("t")}, {r.pools["t"][1], r.eb.SRQ("t")}}
		}},
		{"native", func(p *params.Params, active func(time.Duration) bool) (*sim.Engine, *echoLoad, []ring) {
			v, l := newNativeEcho(p, 1, p.HostCoreSpeed, 1024, 4)
			l.active = active
			return v.eng, l, verbs(v)
		}},
		{"victim", func(p *params.Params, active func(time.Duration) bool) (*sim.Engine, *echoLoad, []ring) {
			p.NICCacheActiveQPs = 64
			v, l := newVictimEcho(p, 1, 512, false)
			l.active = active
			return v.eng, l, verbs(v)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := params.Default()
			stop := p.QPSetupTime + 5*time.Millisecond
			eng, st, rings := tc.build(p, func(now time.Duration) bool { return now < stop })
			defer eng.Stop()
			eng.RunUntil(stop + 20*time.Millisecond)
			if st.count == 0 {
				t.Fatal("no echo completed")
			}
			for i, rg := range rings {
				if inUse, posted := rg.pool.InUse(), rg.srq.Posted(); inUse != posted {
					t.Errorf("side %d: %d buffers in use, %d posted to the receive ring (%d leaked)", i, inUse, posted, inUse-posted)
				}
			}
		})
	}
}

// TestOffPathLeavesSoCDMAIdle: an off-path engine moves only descriptors
// (the RNIC DMAs payloads straight into host pools), so an echo run leaves
// both SoCs' DMA engines without a transfer, while an on-path one stages
// every payload through them. That is why a "dma@<node>" stall changes
// nothing in res-storm, clone-chaos or the simulation fuzzer, whose
// engines all run off-path.
func TestOffPathLeavesSoCDMAIdle(t *testing.T) {
	for _, mode := range []dne.Mode{dne.OffPath, dne.OnPath} {
		p := params.Default()
		r := newDNERig(p, 1, mode, dne.SchedFCFS, []tenantSpec{{name: "t", weight: 1}})
		st := r.startEchoClients("t", 4, 1024, func(time.Duration) bool { return true })
		r.eng.RunUntil(p.QPSetupTime + 2*time.Millisecond)
		r.eng.Stop()
		if st.count == 0 {
			t.Fatalf("mode %d: no echo completed", mode)
		}
		ops := r.dpuA.SoCDMA().Ops() + r.dpuB.SoCDMA().Ops()
		if mode == dne.OffPath && ops != 0 {
			t.Errorf("off-path echo issued %d SoC DMA transfers, want 0", ops)
		}
		if mode == dne.OnPath && ops == 0 {
			t.Error("on-path echo issued no SoC DMA transfer")
		}
	}
}
