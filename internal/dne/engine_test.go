package dne

import (
	"testing"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// pairRig is a two-worker-node cluster with an engine per node, one tenant,
// and an echo client/server function pair — the basic fixture behind the
// Fig. 6/11/15 microbenchmarks.
type pairRig struct {
	eng          *sim.Engine
	p            *params.Params
	net          *fabric.Network
	ea, eb       *Engine
	poolA, poolB *mempool.Pool
	coreA, coreB *sim.Processor // host cores for the functions
	portCli      *FnPort
	portSrv      *FnPort
	ready        *sim.Queue[struct{}]
}

type rigOpt func(*Config, *Config)

func withMode(m Mode) rigOpt {
	return func(a, b *Config) { a.Mode, b.Mode = m, m }
}

func withLoc(l Location) rigOpt {
	return func(a, b *Config) { a.Loc, b.Loc = l, l }
}

func withSched(s SchedulerKind) rigOpt {
	return func(a, b *Config) { a.Sched, b.Sched = s, s }
}

const rigTenant = "tenant_1"

func newPairRig(t *testing.T, seed int64, p *params.Params, opts ...rigOpt) *pairRig {
	t.Helper()
	eng := sim.NewEngine(seed)
	t.Cleanup(eng.Stop)
	net := fabric.New(eng, p)
	dA := dpu.New(eng, p, "nodeA", net, 2)
	dB := dpu.New(eng, p, "nodeB", net, 2)

	cfgA := Config{Node: "nodeA", Channel: dpu.ComchE}
	cfgB := Config{Node: "nodeB", Channel: dpu.ComchE}
	for _, o := range opts {
		o(&cfgA, &cfgB)
	}
	var hostA, hkA, hostB, hkB *sim.Processor
	if cfgA.Loc == OnCPU {
		hostA = sim.NewProcessor(eng, "cneA", p.HostCoreSpeed)
		hkA = sim.NewProcessor(eng, "cneA-k", p.HostCoreSpeed)
		hostB = sim.NewProcessor(eng, "cneB", p.HostCoreSpeed)
		hkB = sim.NewProcessor(eng, "cneB-k", p.HostCoreSpeed)
	}
	r := &pairRig{
		eng:   eng,
		p:     p,
		net:   net,
		ea:    New(eng, p, cfgA, dA, hostA, hkA),
		eb:    New(eng, p, cfgB, dB, hostB, hkB),
		poolA: mempool.NewPool(rigTenant, 8192, 4096, p.HugepageSize),
		poolB: mempool.NewPool(rigTenant, 8192, 4096, p.HugepageSize),
		coreA: sim.NewProcessor(eng, "hostA", p.HostCoreSpeed),
		coreB: sim.NewProcessor(eng, "hostB", p.HostCoreSpeed),
		ready: sim.NewQueue[struct{}](eng, 0),
	}
	r.ea.AddTenant(rigTenant, r.poolA, 1)
	r.eb.AddTenant(rigTenant, r.poolB, 1)
	r.ea.SetRoute("srv", "nodeB")
	r.eb.SetRoute("cli", "nodeA")
	r.portCli = r.ea.AttachFunction("cli", rigTenant)
	r.portSrv = r.eb.AttachFunction("srv", rigTenant)

	eng.Spawn("setup", func(pr *sim.Proc) {
		cpA, cpB := rdma.EstablishPair(pr, p, rigTenant,
			dA.RNIC(), dB.RNIC(), 8,
			r.ea.SRQ(rigTenant), r.eb.SRQ(rigTenant), r.ea.CQ(), r.eb.CQ())
		r.ea.AddConnPool("nodeB", rigTenant, cpA)
		r.eb.AddConnPool("nodeA", rigTenant, cpB)
		r.ea.Start()
		r.eb.Start()
		r.ready.Put(pr, struct{}{})
	})
	return r
}

// spawnEchoServer runs a server that echoes every request back to its Src.
func (r *pairRig) spawnEchoServer(t *testing.T) {
	r.eng.Spawn("srv", func(pr *sim.Proc) {
		for {
			d := r.portSrv.Recv(pr, r.coreB)
			reply, err := r.poolB.Get("srv")
			if err != nil {
				t.Error(err)
				return
			}
			out := mempool.Descriptor{
				Tenant: rigTenant, Buf: reply, Len: d.Len,
				Src: "srv", Dst: d.Src, Seq: d.Seq, Stamp: d.Stamp, Ctx: d.Ctx,
			}
			if err := r.poolB.Put(d.Buf, "srv"); err != nil {
				t.Error(err)
				return
			}
			if err := r.portSrv.Send(pr, r.coreB, out); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// runEcho drives n sequential echo round trips of the given payload and
// returns their RTTs.
func (r *pairRig) runEcho(t *testing.T, n, payload int) []time.Duration {
	var rtts []time.Duration
	r.spawnEchoServer(t)
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		for i := 0; i < n; i++ {
			buf, err := r.poolA.Get("cli")
			if err != nil {
				t.Error(err)
				return
			}
			start := pr.Now()
			d := mempool.Descriptor{
				Tenant: rigTenant, Buf: buf, Len: payload,
				Src: "cli", Dst: "srv", Seq: uint64(i), Stamp: start,
			}
			if err := r.portCli.Send(pr, r.coreA, d); err != nil {
				t.Error(err)
				return
			}
			resp := r.portCli.Recv(pr, r.coreA)
			rtts = append(rtts, pr.Now()-start)
			if err := r.poolA.Put(resp.Buf, "cli"); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.eng.RunUntil(3 * time.Second)
	return rtts
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func TestEngineEchoEndToEnd(t *testing.T) {
	r := newPairRig(t, 1, params.Default())
	rtts := r.runEcho(t, 50, 1024)
	if len(rtts) != 50 {
		t.Fatalf("completed %d of 50 echoes", len(rtts))
	}
	m := mean(rtts)
	// DNE echo adds Comch hops + engine stages on wimpy cores over the raw
	// ~9us verbs RTT; it should land in the tens of microseconds.
	if m < 10*time.Microsecond || m > 100*time.Microsecond {
		t.Fatalf("mean echo RTT = %v, want tens of us", m)
	}
	tx, rx, dnr, dnp, serr := r.ea.Stats()
	if tx != 50 || rx != 50 {
		t.Fatalf("engine A tx=%d rx=%d", tx, rx)
	}
	if dnr != 0 || dnp != 0 || serr != 0 {
		t.Fatalf("drops/errors: %d %d %d", dnr, dnp, serr)
	}
}

func TestEngineNoBufferLeaks(t *testing.T) {
	r := newPairRig(t, 2, params.Default())
	r.runEcho(t, 200, 512)
	// Drain in-flight work, then the only buffers held should be the
	// pre-posted RQ buffers.
	r.eng.RunUntil(r.eng.Now() + time.Second)
	wantA := r.ea.SRQ(rigTenant).Posted()
	if got := r.poolA.InUse(); got != wantA {
		t.Fatalf("pool A in use = %d, want %d (posted RQ only)", got, wantA)
	}
	wantB := r.eb.SRQ(rigTenant).Posted()
	if got := r.poolB.InUse(); got != wantB {
		t.Fatalf("pool B in use = %d, want %d (posted RQ only)", got, wantB)
	}
}

func TestEngineRQReplenishmentKeepsUp(t *testing.T) {
	r := newPairRig(t, 3, params.Default())
	r.runEcho(t, 500, 256)
	if rnr := r.eb.SRQ(rigTenant).RNREvents(); rnr > 0 {
		t.Fatalf("receiver stalled %d times: replenishment fell behind", rnr)
	}
}

func TestOnPathSlowerThanOffPathUnderLoad(t *testing.T) {
	// Fig. 11: with concurrency, the SoC DMA engine queues and the on-path
	// engine falls behind the off-path one.
	run := func(mode Mode) float64 {
		p := params.Default()
		r := newPairRig(t, 4, p, withMode(mode))
		r.spawnEchoServer(t)
		const clients = 8
		done := 0
		for c := 0; c < clients; c++ {
			cid := c
			r.eng.Spawn("cli", func(pr *sim.Proc) {
				r.ready.Get(pr)
				r.ready.TryPut(struct{}{}) // wake the rest
				fn := "cli"
				_ = cid
				for {
					buf, err := r.poolA.Get(mempool.Owner(fn))
					if err != nil {
						t.Error(err)
						return
					}
					d := mempool.Descriptor{Tenant: rigTenant, Buf: buf, Len: 1024, Src: fn, Dst: "srv"}
					if err := r.portCli.Send(pr, r.coreA, d); err != nil {
						t.Error(err)
						return
					}
					resp := r.portCli.Recv(pr, r.coreA)
					done++
					if err := r.poolA.Put(resp.Buf, mempool.Owner(fn)); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		r.eng.RunUntil(200 * time.Millisecond)
		elapsed := r.eng.Now() - r.p.QPSetupTime
		return float64(done) / elapsed.Seconds()
	}
	off := run(OffPath)
	on := run(OnPath)
	if on >= off {
		t.Fatalf("on-path RPS (%.0f) not below off-path (%.0f)", on, off)
	}
	ratio := off / on
	if ratio < 1.1 || ratio > 3.0 {
		t.Fatalf("off/on RPS ratio = %.2f, want ~1.2-1.5x (Fig. 11 shows up to ~1.3x)", ratio)
	}
}

func TestEngineOwnershipViolationSurfaceable(t *testing.T) {
	// A function must not be able to send a buffer it does not own.
	r := newPairRig(t, 5, params.Default())
	var sendErr error
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		buf, _ := r.poolA.Get("someone-else")
		d := mempool.Descriptor{Tenant: rigTenant, Buf: buf, Len: 64, Src: "cli", Dst: "srv"}
		sendErr = r.portCli.Send(pr, r.coreA, d)
	})
	r.eng.RunUntil(time.Second)
	if sendErr == nil {
		t.Fatal("send of unowned buffer succeeded")
	}
}

func TestComchPPortPinsCore(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(9)
	defer eng.Stop()
	net := fabric.New(eng, p)
	d := dpu.New(eng, p, "nodeX", net, 2)
	e := New(eng, p, Config{Node: "nodeX", Channel: dpu.ComchP}, d, nil, nil)
	pool := mempool.NewPool("t", 1024, 16, p.HugepageSize)
	e.AddTenant("t", pool, 1)
	fp := e.AttachFunction("fn", "t")
	if !fp.PinsHostCore() {
		t.Fatal("Comch-P port must pin a host core")
	}
	if _, ok := fp.TryRecv(); ok {
		t.Fatal("TryRecv on empty port succeeded")
	}
	if fp.Fn() != "fn" {
		t.Fatalf("Fn = %q", fp.Fn())
	}
}

func TestAttachDuplicateFunctionPanics(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(9)
	defer eng.Stop()
	net := fabric.New(eng, p)
	d := dpu.New(eng, p, "nodeX", net, 2)
	e := New(eng, p, Config{Node: "nodeX", Channel: dpu.ComchE}, d, nil, nil)
	e.AttachFunction("fn", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	e.AttachFunction("fn", "t")
}

func TestEngineDropsUnroutableDescriptors(t *testing.T) {
	// A descriptor whose destination has no route (or whose route has no
	// connection pool) is dropped and its buffer recycled — functions
	// cannot wedge the engine with garbage destinations.
	p := params.Default()
	r := newPairRig(t, 21, p)
	var sendErr error
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		inUse := r.poolA.InUse()
		// Unknown destination: no route at all.
		buf, _ := r.poolA.Get("cli")
		d := mempool.Descriptor{Tenant: rigTenant, Buf: buf, Len: 64, Src: "cli", Dst: "ghost"}
		sendErr = r.portCli.Send(pr, r.coreA, d)
		pr.Sleep(5 * time.Millisecond)
		if got := r.poolA.InUse(); got != inUse {
			t.Errorf("dropped descriptor leaked a buffer: %d != %d", got, inUse)
		}
	})
	r.eng.RunUntil(time.Second)
	if sendErr != nil {
		t.Fatalf("send itself should succeed (the engine drops): %v", sendErr)
	}
	_, _, dnr, _, _ := r.ea.Stats()
	if dnr == 0 {
		t.Fatal("no-route drop not counted")
	}
}

func TestEngineAccessors(t *testing.T) {
	p := params.Default()
	r := newPairRig(t, 22, p)
	if r.ea.Node() != "nodeA" || r.ea.RNIC() == nil {
		t.Fatal("engine accessors wrong")
	}
	if r.ea.WorkerCore() == nil || r.ea.KeeperCore() == nil {
		t.Fatal("core accessors wrong")
	}
	if r.ea.SchedPending() != 0 {
		t.Fatal("fresh engine reports backlog")
	}
	r.eng.RunUntil(r.p.QPSetupTime + time.Millisecond)
	if r.ea.ConnPool("nodeB", rigTenant) == nil {
		t.Fatal("installed connection pool not found")
	}
	if r.ea.ConnPool("ghost", rigTenant) != nil || r.ea.ConnPool("nodeB", "ghost") != nil {
		t.Fatal("connection pool reported for an unknown node or tenant")
	}
}

// refuseAll is a gateway tier that never forwards, so the engine keeps its
// own QPs for TX while GatewayDeliver feeds its RX stage.
type refuseAll struct{}

func (refuseAll) ForwardRemote(mempool.Descriptor, fabric.NodeID) bool { return false }

// TestGatewayLandedDelivery drives the RX stage's gateway branch. A landed
// descriptor for an attached function reaches its port, its buffer handed
// from the gateway owner to the function. One for an unattached function
// counts a no-port drop, returns its buffer to the pool under the gateway
// owner and reports its Ctx to the drop hook.
func TestGatewayLandedDelivery(t *testing.T) {
	const gwOwner = mempool.Owner("gw@nodeB")
	r := newPairRig(t, 24, params.Default())
	r.eb.SetForwarder(refuseAll{}, gwOwner)
	var lost []any
	r.eb.SetDropHook(func(ctx any) { lost = append(lost, ctx) })
	var got []mempool.Descriptor
	r.eng.Spawn("srv", func(pr *sim.Proc) {
		for {
			got = append(got, r.portSrv.Recv(pr, r.coreB))
		}
	})

	at := r.p.QPSetupTime + time.Millisecond
	r.eng.RunUntil(at)
	inUse := r.poolB.InUse()
	var landed mempool.Buffer
	r.eng.At(at, func() {
		for _, dst := range []string{"srv", "ghost"} {
			buf, err := r.poolB.Get(gwOwner)
			if err != nil {
				t.Error(err)
				return
			}
			if dst == "srv" {
				landed = buf
			}
			r.eb.GatewayDeliver(mempool.Descriptor{
				Tenant: rigTenant, Buf: buf, Len: 256, Src: "cli", Dst: dst, Ctx: dst,
			})
		}
	})
	r.eng.RunUntil(at + time.Millisecond)

	if len(got) != 1 || got[0].Dst != "srv" || got[0].Buf != landed {
		t.Fatalf("port received %+v, want the one landing for srv", got)
	}
	if own, err := r.poolB.OwnerOf(landed); err != nil || own != "srv" {
		t.Fatalf("landed buffer owned by %q (%v), want srv", own, err)
	}
	if _, rx, _, dnp, _ := r.eb.Stats(); rx != 1 || dnp != 1 {
		t.Fatalf("rx=%d dropNoPort=%d, want 1 and 1", rx, dnp)
	}
	if len(lost) != 1 || lost[0] != "ghost" {
		t.Fatalf("drop hook saw %v, want [ghost]", lost)
	}
	// Only the delivered buffer is still out; the dropped one came home.
	if n := r.poolB.InUse(); n != inUse+1 {
		t.Fatalf("pool B in use = %d, want %d", n, inUse+1)
	}
}
