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
	dA := dpu.New(eng, p, "nodeA", net)
	dB := dpu.New(eng, p, "nodeB", net)

	cfgA := Config{Node: "nodeA"}
	cfgB := Config{Node: "nodeB"}
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

	eng.Immediate(func() {
		rdma.EstablishPair(eng, p, rigTenant,
			dA.RNIC(), dB.RNIC(), 8,
			r.ea.SRQ(rigTenant), r.eb.SRQ(rigTenant), r.ea.CQ(), r.eb.CQ(), func(cpA, cpB *rdma.ConnPool) {
				r.ea.AddConnPool("nodeB", rigTenant, cpA)
				r.eb.AddConnPool("nodeA", rigTenant, cpB)
				r.ea.Start()
				r.eb.Start()
				r.ready.TryPut(struct{}{})
			})
	})
	return r
}

// onReady runs fn once the rig's connections are up: at once when they
// are, else when the ready token reaches it (each waiter passes it on).
func (r *pairRig) onReady(fn func()) {
	if _, ok := r.ready.TryGet(); !ok {
		r.ready.Notify(func() { r.onReady(fn) })
		return
	}
	r.ready.TryPut(struct{}{})
	fn()
}

// sendOn hands d to fp, paying the channel send cost on core, then passes
// SendBegin's error (nil once d is shipped) to then.
func sendOn(fp *FnPort, core *sim.Processor, d mempool.Descriptor, then func(error)) {
	cost, sp, err := fp.SendBegin(&d)
	if err != nil {
		then(err)
		return
	}
	core.Run(cost, func() {
		fp.SendEnd(d, sp)
		then(nil)
	})
}

// recvOn waits for the next descriptor on fp, pays the channel wakeup cost
// on core, then passes the descriptor (owned by the function) to then.
func recvOn(fp *FnPort, core *sim.Processor, then func(mempool.Descriptor)) {
	d, ok := fp.TryRecv()
	if !ok {
		fp.NotifyRecv(func() { recvOn(fp, core, then) })
		return
	}
	sp, cost := fp.Received(&d)
	core.Run(cost, func() {
		sp.End()
		then(d)
	})
}

// startEchoServer runs a server that echoes every request back to its Src.
func (r *pairRig) startEchoServer(t *testing.T) {
	var serve func(d mempool.Descriptor)
	serve = func(d mempool.Descriptor) {
		reply, err := r.poolB.Get("srv")
		if err != nil {
			t.Error(err)
			return
		}
		out := mempool.Descriptor{
			Tenant: rigTenant, Buf: reply, Len: d.Len, Seq: d.Seq,
			Msg: &mempool.Msg{Src: "srv", Dst: d.Msg.Src, Ctx: d.Msg.Ctx},
		}
		if err := r.poolB.Put(d.Buf, "srv"); err != nil {
			t.Error(err)
			return
		}
		sendOn(r.portSrv, r.coreB, out, func(err error) {
			if err != nil {
				t.Error(err)
				return
			}
			recvOn(r.portSrv, r.coreB, serve)
		})
	}
	r.eng.Immediate(func() { recvOn(r.portSrv, r.coreB, serve) })
}

// runEcho drives n sequential echo round trips of the given payload and
// returns their RTTs.
func (r *pairRig) runEcho(t *testing.T, n, payload int) []time.Duration {
	var rtts []time.Duration
	r.startEchoServer(t)
	var echo func(i int)
	echo = func(i int) {
		if i == n {
			return
		}
		buf, err := r.poolA.Get("cli")
		if err != nil {
			t.Error(err)
			return
		}
		start := r.eng.Now()
		d := mempool.Descriptor{
			Tenant: rigTenant, Buf: buf, Len: int32(payload), Seq: uint64(i),
			Msg: &mempool.Msg{Src: "cli", Dst: "srv"},
		}
		sendOn(r.portCli, r.coreA, d, func(err error) {
			if err != nil {
				t.Error(err)
				return
			}
			recvOn(r.portCli, r.coreA, func(resp mempool.Descriptor) {
				rtts = append(rtts, r.eng.Now()-start)
				if err := r.poolA.Put(resp.Buf, "cli"); err != nil {
					t.Error(err)
					return
				}
				echo(i + 1)
			})
		})
	}
	r.eng.Immediate(func() { r.onReady(func() { echo(0) }) })
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
		r.startEchoServer(t)
		const clients = 8
		done := 0
		var loop func()
		loop = func() {
			buf, err := r.poolA.Get("cli")
			if err != nil {
				t.Error(err)
				return
			}
			d := mempool.Descriptor{Tenant: rigTenant, Buf: buf, Len: 1024, Msg: &mempool.Msg{Src: "cli", Dst: "srv"}}
			sendOn(r.portCli, r.coreA, d, func(err error) {
				if err != nil {
					t.Error(err)
					return
				}
				recvOn(r.portCli, r.coreA, func(resp mempool.Descriptor) {
					done++
					if err := r.poolA.Put(resp.Buf, "cli"); err != nil {
						t.Error(err)
						return
					}
					loop()
				})
			})
		}
		for c := 0; c < clients; c++ {
			r.eng.Immediate(func() { r.onReady(loop) })
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
	r.onReady(func() {
		buf, _ := r.poolA.Get("someone-else")
		d := mempool.Descriptor{Tenant: rigTenant, Buf: buf, Len: 64, Msg: &mempool.Msg{Src: "cli", Dst: "srv"}}
		sendOn(r.portCli, r.coreA, d, func(err error) { sendErr = err })
	})
	r.eng.RunUntil(time.Second)
	if sendErr == nil {
		t.Fatal("send of unowned buffer succeeded")
	}
}

// TestDPUCoresAreWimpy: the DPU's ARM cores are the DPU-hosted engine's
// worker and keeper, and both run reference work at DPUNetSpeed, slower
// than a host core; the CPU-hosted engine runs on the host cores it is
// given.
func TestDPUCoresAreWimpy(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	net := fabric.New(eng, p)
	e := New(eng, p, Config{Node: "nodeA"}, dpu.New(eng, p, "nodeA", net), nil, nil)
	host := sim.NewProcessor(eng, "host", p.HostCoreSpeed)
	var hostDone, workerDone, keeperDone time.Duration
	host.Run(10*time.Microsecond, func() { hostDone = eng.Now() })
	e.WorkerCore().Run(10*time.Microsecond, func() { workerDone = eng.Now() })
	e.KeeperCore().Run(10*time.Microsecond, func() { keeperDone = eng.Now() })
	eng.Run()
	if workerDone != keeperDone {
		t.Fatalf("worker took %v, keeper %v: want one DPU core speed", workerDone, keeperDone)
	}
	if ratio := float64(workerDone) / float64(hostDone); ratio < 1.1 || ratio > 1.5 {
		t.Fatalf("DPU core slowdown = %.2f, want ~1.25 (near par on verbs work, Fig. 6)", ratio)
	}
	if e.WorkerCore().Name() != "nodeA/dne-worker" || e.KeeperCore().Name() != "nodeA/dne-keeper" {
		t.Fatalf("DPU cores named %q and %q", e.WorkerCore().Name(), e.KeeperCore().Name())
	}

	worker := sim.NewProcessor(eng, "cne", p.HostCoreSpeed)
	keeper := sim.NewProcessor(eng, "cne-k", p.HostCoreSpeed)
	cne := New(eng, p, Config{Node: "nodeB", Loc: OnCPU}, dpu.New(eng, p, "nodeB", net), worker, keeper)
	if cne.WorkerCore() != worker || cne.KeeperCore() != keeper {
		t.Fatal("the CNE does not run on the host cores it was given")
	}
}

func TestAttachDuplicateFunctionPanics(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(9)
	defer eng.Stop()
	net := fabric.New(eng, p)
	d := dpu.New(eng, p, "nodeX", net)
	e := New(eng, p, Config{Node: "nodeX"}, d, nil, nil)
	fp := e.AttachFunction("fn", "t")
	if fp.Fn() != "fn" {
		t.Fatalf("Fn = %q", fp.Fn())
	}
	if _, ok := fp.TryRecv(); ok {
		t.Fatal("TryRecv on empty port succeeded")
	}
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
	r.onReady(func() {
		inUse := r.poolA.InUse()
		// Unknown destination: no route at all.
		buf, _ := r.poolA.Get("cli")
		d := mempool.Descriptor{Tenant: rigTenant, Buf: buf, Len: 64, Msg: &mempool.Msg{Src: "cli", Dst: "ghost"}}
		sendOn(r.portCli, r.coreA, d, func(err error) {
			sendErr = err
			r.eng.After(5*time.Millisecond, func() {
				if got := r.poolA.InUse(); got != inUse {
					t.Errorf("dropped descriptor leaked a buffer: %d != %d", got, inUse)
				}
			})
		})
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
	if got := r.ea.SRQ(rigTenant).Posted(); got != r.ea.RQTarget() {
		t.Fatalf("keeper posted %d receive buffers, want %d", got, r.ea.RQTarget())
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
	var take func(d mempool.Descriptor)
	take = func(d mempool.Descriptor) {
		got = append(got, d)
		recvOn(r.portSrv, r.coreB, take)
	}
	r.eng.Immediate(func() { recvOn(r.portSrv, r.coreB, take) })

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
				Tenant: rigTenant, Buf: buf, Len: 256, Msg: &mempool.Msg{Src: "cli", Dst: dst, Ctx: dst},
			})
		}
	})
	r.eng.RunUntil(at + time.Millisecond)

	if len(got) != 1 || got[0].Msg.Dst != "srv" || got[0].Buf != landed {
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
