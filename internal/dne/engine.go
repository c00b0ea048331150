package dne

import (
	"fmt"
	"math/bits"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/fabric"
	"nadino/internal/flightrec"
	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/ring"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// Mode selects on-path vs off-path DPU offloading (§2.1, Fig. 2).
type Mode int

// Offloading modes.
const (
	// OffPath: cross-processor shared memory lets the RNIC DMA directly
	// into host pools; the engine only touches descriptors. NADINO's mode.
	OffPath Mode = iota
	// OnPath: data is staged in DPU SoC memory and moved across the PCIe
	// boundary by the slow SoC DMA engine on both TX and RX.
	OnPath
)

// Location selects where the engine runs (§4.3's DNE vs CNE comparison).
type Location int

// Engine placements.
const (
	// OnDPU pins the engine to a wimpy DPU ARM core; host functions reach
	// it over DOCA Comch.
	OnDPU Location = iota
	// OnCPU pins the engine to a host core (the CNE); functions reach it
	// over SK_MSG, whose interrupt-driven input throttles it at high
	// concurrency.
	OnCPU
)

// PollBatch and ReplenishBatch size the worker loop's CQ drain buffer and
// the keeper's SRQ batch replenish. They are package-level knobs so the
// determinism fence can pin that batch size never affects simulation
// output: costs are charged per CQE and per buffer, so any batch size
// yields bitwise-identical results for a fixed seed.
var (
	PollBatch      = 16
	ReplenishBatch = 64
)

// ownerRQ is the mempool owner string for buffers posted to a tenant SRQ.
func ownerRQ(node fabric.NodeID) mempool.Owner {
	return mempool.Owner("dne-rq@" + string(node))
}

// OwnerEngine is the mempool owner the engine uses while it holds buffers
// in flight.
func OwnerEngine(node fabric.NodeID) mempool.Owner {
	return mempool.Owner("dne@" + string(node))
}

// comch is the DPU-hosted engine's host channel: event-driven DOCA Comch
// (§3.5.4). Fig. 9's rig builds the other variants with dpu.NewComch.
const comch = dpu.ComchE

// Config assembles an engine.
type Config struct {
	Node  fabric.NodeID
	Mode  Mode
	Loc   Location
	Sched SchedulerKind
	// QuantumUnit is the DWRR byte quantum per unit weight (default 2KB).
	QuantumUnit int
	// ReplenishEvery is the core thread's RQ replenish period.
	ReplenishEvery time.Duration
	// InitialRQ is how many receive buffers to pre-post per tenant.
	InitialRQ int
}

// tenantState is per-tenant engine state.
type tenantState struct {
	name string
	id   int32 // dense index into Engine.tenantSeq (interned at AddTenant)
	pool *mempool.Pool
	srq  *rdma.SRQ
	// rqDebt is the replenishment shortfall carried across keeper rounds:
	// consumed RQ slots the keeper could not repost because the tenant pool
	// was squeezed. Without it, ConsumedReset's count is lost on pool
	// pressure and the ring starves permanently once buffers come back.
	rqDebt int
}

// Engine is the DPU network engine (or its CPU-hosted twin).
type Engine struct {
	eng *sim.Engine
	p   *params.Params
	cfg Config

	// worker is the pinned core running the run-to-completion loop;
	// keeper is the core-thread core (mmap registration, RQ replenish).
	worker *sim.Processor
	keeper *sim.Processor
	socDMA *dpu.DMAEngine
	rnic   *rdma.RNIC
	cq     *rdma.CQ
	work   *sim.Signal

	// The map fields support lookup; the *Seq slices preserve insertion
	// order for iteration, because Go map iteration order is randomized and
	// any map-ordered walk on the simulation path would make runs
	// nondeterministic.
	tenants   map[string]*tenantState
	tenantSeq []*tenantState
	ports     map[string]*FnPort
	portSeq   []*FnPort
	poolSeq   []*rdma.ConnPool
	// activeFloor sums the pools' active QPs when they were installed, the
	// floors their Shrink keeps. No pool drops below its floor, so the
	// pools' active QPs sum to activeFloor exactly when none is above it.
	activeFloor int
	// ready holds one bit per attached port, in portSeq order: a delivery
	// to the port sets it and an ingest pull that finds the port empty
	// clears it, so a clear bit means an empty port and ingest skips it.
	ready []uint64

	// Interned routing state (§3.2): tenant, function and node names resolve
	// to dense IDs once, so the per-request TX/RX path does slice indexing
	// instead of string-map lookups. Every descriptor the engine handles
	// carries its tenant and destination IDs as +1-offset hints, stamped at
	// the boundary it entered through (FnPort.Send, RQ posting,
	// GatewayDeliver). IDs are engine-local and never cross the wire.
	fnIDs     map[string]int32
	routeByFn []int32 // fn ID -> node index, -1 = no route
	nodeIDs   map[fabric.NodeID]int32
	nodeNames []fabric.NodeID
	poolByNT  [][]*rdma.ConnPool // [node index][tenant ID]

	// Precomputed owner/actor strings (these were per-message concats).
	rqOwner    mempool.Owner
	engOwner   mempool.Owner
	actorLabel string

	// Gateway tier (optional): cross-node TX hops are offered to fwd
	// instead of the engine's own per-tenant QPs; landed descriptors come
	// back through gwIn under gwOwner. selfIdx is this node's interned
	// index, the "is this hop cross-node" test.
	fwd     Forwarder
	gwOwner mempool.Owner
	gwIn    ring.Deque[mempool.Descriptor]
	selfIdx int32
	fwdOut  uint64

	// cqeBuf is the worker's reusable CQ drain buffer; rqBufs/rqDescs are
	// the keeper's batch-replenish scratch.
	cqeBuf  []rdma.CQE
	rqBufs  []mempool.Buffer
	rqDescs []mempool.Descriptor

	// w and k are the worker loop's and the keeper's state between block
	// points: both run as engine callbacks (see Start).
	w workerState
	k keeperState

	sched     Scheduler
	dwrrSched *DWRR

	txCount, rxCount uint64
	dropNoRoute      uint64
	dropNoPort       uint64
	sendErrors       uint64
	retriedSends     uint64
	dropRetryBudget  uint64
	specDrops        uint64 // losing clones killed at the TX gate

	// Flight recorder hook (optional): drop events land in the ring with
	// this engine's interned actor id. Nil-safe via the rec==nil branch.
	rec      *flightrec.Recorder
	recActor uint16

	// onDrop, when set, learns the context of every descriptor the engine
	// loses for good (SetDropHook).
	onDrop func(ctx any)

	started bool
}

// Worker loop stages, in pass order.
const (
	stageRX      = iota // drain the CQ
	stageGateway        // gateway-landed descriptors
	stageIngest         // host -> engine channels
	stageTX             // tenant scheduler, up to txBatch sends
	stageEnd            // end of pass: go again, or park until work arrives
)

// txBatch caps the sends one worker pass makes before it polls again.
const txBatch = 16

// shrinkEvery is how many keeper rounds pass between connection-pool
// shrinks.
const shrinkEvery = 100

// workerState is the run-to-completion loop's position and the descriptor
// it has in service. The loop is one state machine: each block point — a
// Run on the worker core, an on-path DMA, parking on the work signal —
// schedules exactly the one event the blocking loop did, and the
// continuation picks up from here.
type workerState struct {
	stage        int
	did          bool // the pass found work
	cqe, cqes    int  // next entry / entries polled into cqeBuf
	port, nPorts int
	tx           int // sends this pass

	d        mempool.Descriptor // in service
	status   rdma.Status        // d's send completion status
	sp       trace.SpanRef      // d's open stage span
	from     mempool.Owner      // rx: owner of d's buffer on arrival
	fp       *FnPort            // rx: destination port
	cp       *rdma.ConnPool     // tx: pool toward the next hop
	afterDMA func()             // on-path DMA: where the pass resumes

	// Continuations, bound once at Start.
	passFn, sentFn, rxRanFn, rxLandFn, rxPushFn, ingestedFn, txRouteFn, txPostFn, txSentFn, dmaLandedFn func()
}

// keeperState is the core thread's position within a replenish round, and
// whether it sleeps between rounds (see keeperStep).
type keeperState struct {
	initial      bool // the first round pre-posts InitialRQ per tenant
	armed        bool // a round is queued or running, so a wake has nothing to do
	ten, nTens   int  // next tenant / tenants registered when the round began
	ts           *tenantState
	want, posted int // the batch waiting on the keeper core
	round        int
	// due is the grid instant where the next round runs: the last round's
	// end plus ReplenishEvery, then every ReplenishEvery while asleep.
	due              time.Duration
	postedFn, tickFn func()
}

// New assembles an engine. For OnDPU it runs on two of the DPU's ARM cores,
// which it creates, and d supplies the SoC DMA and integrated RNIC; for
// OnCPU, d still supplies the node's RNIC (the DPU stays in NIC mode)
// while the loop runs on hostCore and the keeper on hostKeeper.
func New(eng *sim.Engine, p *params.Params, cfg Config, d *dpu.DPU, hostCore, hostKeeper *sim.Processor) *Engine {
	if cfg.QuantumUnit == 0 {
		cfg.QuantumUnit = 2048
	}
	if cfg.ReplenishEvery == 0 {
		cfg.ReplenishEvery = 50 * time.Microsecond
	}
	if cfg.InitialRQ == 0 {
		cfg.InitialRQ = 256
	}
	e := &Engine{
		eng:        eng,
		p:          p,
		cfg:        cfg,
		socDMA:     d.SoCDMA(),
		rnic:       d.RNIC(),
		cq:         rdma.NewCQ(eng),
		work:       sim.NewSignal(eng),
		tenants:    make(map[string]*tenantState),
		ports:      make(map[string]*FnPort),
		fnIDs:      make(map[string]int32),
		nodeIDs:    make(map[fabric.NodeID]int32),
		rqOwner:    ownerRQ(cfg.Node),
		engOwner:   OwnerEngine(cfg.Node),
		actorLabel: string(cfg.Node) + "/dne",
	}
	if cfg.Loc == OnDPU {
		// The DNE loop does verbs/descriptor work, where the ARM cores are
		// nearly on par with x86 (Fig. 6); dedicated cores with the
		// net-work speed factor model that.
		e.worker = sim.NewProcessor(eng, string(cfg.Node)+"/dne-worker", p.DPUNetSpeed)
		e.keeper = sim.NewProcessor(eng, string(cfg.Node)+"/dne-keeper", p.DPUNetSpeed)
	} else {
		if hostCore == nil || hostKeeper == nil {
			panic("dne: CPU-hosted engine needs host cores")
		}
		e.worker = hostCore
		e.keeper = hostKeeper
	}
	if cfg.Sched == SchedDWRR {
		e.dwrrSched = NewDWRR(cfg.QuantumUnit)
		e.sched = e.dwrrSched
	} else {
		e.sched = NewFCFS()
	}
	e.cq.SetNotify(func() { e.work.Pulse() })
	e.selfIdx = e.internNode(cfg.Node)
	return e
}

// Forwarder is the per-node gateway tier's ingest hook (implemented by
// gateway.Gateway): the engine offers every cross-node descriptor to it
// instead of posting on its own per-tenant QPs. ForwardRemote returns false
// when it cannot serve dst — not a peer gateway, e.g. the ingress backend —
// and the engine falls back to its direct path.
type Forwarder interface {
	ForwardRemote(d mempool.Descriptor, dst fabric.NodeID) bool
}

// SetForwarder attaches the node's gateway tier. gwOwner is the mempool
// owner gateway-delivered buffers arrive under (gateway.Gateway.Owner).
// Call before traffic.
func (e *Engine) SetForwarder(f Forwarder, gwOwner mempool.Owner) {
	e.fwd = f
	e.gwOwner = gwOwner
}

// GatewayDeliver implements gateway.Egress: accept a descriptor the gateway
// tier landed for a local function. The buffer is owned by the gateway;
// the worker loop transfers it to the destination function. The gateway
// clears the sender engine's IDs, so the tenant is stamped here, once.
// Engine context; never blocks.
func (e *Engine) GatewayDeliver(d mempool.Descriptor) {
	ts := e.tenants[d.Tenant]
	if ts == nil {
		panic(fmt.Sprintf("dne: gateway landed a buffer of unregistered tenant %q", d.Tenant))
	}
	d.TenantID = ts.id + 1
	e.gwIn.PushBack(d)
	e.work.Pulse()
}

// GatewayRelease implements gateway.Egress: recycle a source buffer whose
// gateway forward completed or was dropped.
func (e *Engine) GatewayRelease(d mempool.Descriptor) {
	e.releaseBuffer(d)
}

// Forwarded reports descriptors handed to the gateway tier.
func (e *Engine) Forwarded() uint64 { return e.fwdOut }

// Node reports the engine's node.
func (e *Engine) Node() fabric.NodeID { return e.cfg.Node }

// RNIC returns the RNIC the engine proxies.
func (e *Engine) RNIC() *rdma.RNIC { return e.rnic }

// CQ returns the engine's completion queue (shared across all RC QPs on
// this node, §3.3).
func (e *Engine) CQ() *rdma.CQ { return e.cq }

// WorkerCore returns the pinned loop core (for utilization reporting).
func (e *Engine) WorkerCore() *sim.Processor { return e.worker }

// KeeperCore returns the core-thread core.
func (e *Engine) KeeperCore() *sim.Processor { return e.keeper }

// AddTenant maps a tenant's host pool into the engine: the cross-processor
// mmap (§3.4.2) plus SRQ creation. weight feeds the DWRR scheduler.
func (e *Engine) AddTenant(tenant string, pool *mempool.Pool, weight int) *rdma.SRQ {
	if _, ok := e.tenants[tenant]; ok {
		panic(fmt.Sprintf("dne: tenant %q already added", tenant))
	}
	e.rnic.RegisterMR(pool) // doca_mmap_create_from_export
	ts := &tenantState{
		name: tenant,
		id:   int32(len(e.tenantSeq)),
		pool: pool,
		srq:  rdma.NewSRQ(tenant),
	}
	e.tenants[tenant] = ts
	e.tenantSeq = append(e.tenantSeq, ts)
	for i := range e.poolByNT {
		e.poolByNT[i] = append(e.poolByNT[i], nil)
	}
	if e.dwrrSched != nil {
		e.dwrrSched.SetWeight(tenant, weight)
	}
	return ts.srq
}

// SetTenantWeight re-weights a tenant's scheduler share at runtime — the
// management-plane hot-reload path (weights are otherwise fixed at
// AddTenant). Reports whether the tenant exists; engines without a weighted
// scheduler accept the call as a no-op.
func (e *Engine) SetTenantWeight(tenant string, weight int) bool {
	if e.tenants[tenant] == nil {
		return false
	}
	if e.dwrrSched != nil {
		e.dwrrSched.SetWeight(tenant, weight)
	}
	return true
}

// SetFlightRecorder routes this engine's drop events into r (nil detaches).
// The actor id is interned once here so the record path stays
// allocation-free.
func (e *Engine) SetFlightRecorder(r *flightrec.Recorder) {
	e.rec = r
	e.recActor = r.Actor(e.actorLabel)
}

// frDrop records one dropped descriptor in the flight recorder: A is the
// tenant's dense id, B the payload bytes.
func (e *Engine) frDrop(k flightrec.Kind, d *mempool.Descriptor) {
	if e.rec == nil {
		return
	}
	e.rec.Record(k, e.recActor, int64(d.TenantID-1), int64(d.Len))
}

// SetDropHook installs fn to receive the record Ctx of every descriptor the
// engine drops for good — no route, no port, or the transport retry budget
// spent — so the layer that issued it can fail whatever waits on it. Losing
// speculative clones killed at the TX gate are kills, not drops, and are
// not reported. fn runs in engine context.
func (e *Engine) SetDropHook(fn func(ctx any)) { e.onDrop = fn }

// lost hands a dropped descriptor's context to the drop hook. It takes only
// the context, never the descriptor, so drop sites keep their descriptors
// on the stack.
func (e *Engine) lost(ctx any) {
	if e.onDrop != nil {
		e.onDrop(ctx)
	}
}

// SRQ returns a tenant's shared receive queue.
func (e *Engine) SRQ(tenant string) *rdma.SRQ { return e.tenants[tenant].srq }

// RQTarget reports how many receive buffers the keeper keeps posted per
// tenant (Config.InitialRQ after defaulting).
func (e *Engine) RQTarget() int { return e.cfg.InitialRQ }

// internFn returns fn's dense ID, assigning one on first use.
func (e *Engine) internFn(fn string) int32 {
	id, ok := e.fnIDs[fn]
	if !ok {
		id = int32(len(e.routeByFn))
		e.fnIDs[fn] = id
		e.routeByFn = append(e.routeByFn, -1)
	}
	return id
}

// internNode returns node's dense index, assigning one on first use.
func (e *Engine) internNode(node fabric.NodeID) int32 {
	idx, ok := e.nodeIDs[node]
	if !ok {
		idx = int32(len(e.nodeNames))
		e.nodeIDs[node] = idx
		e.nodeNames = append(e.nodeNames, node)
		e.poolByNT = append(e.poolByNT, make([]*rdma.ConnPool, len(e.tenantSeq)))
	}
	return idx
}

// SetRoute declares that function fn runs on node (the inter-node routing
// table of §3.2).
func (e *Engine) SetRoute(fn string, node fabric.NodeID) {
	e.routeByFn[e.internFn(fn)] = e.internNode(node)
}

// AddConnPool installs an established RC connection pool toward remote for
// tenant, which must already be added. The pool must be on the engine's
// RNIC, whose keeper hook wakes the core thread, and as EstablishPair hands
// it over: its active QPs are the floor its Shrink keeps.
func (e *Engine) AddConnPool(remote fabric.NodeID, tenant string, cp *rdma.ConnPool) {
	ts := e.tenants[tenant]
	if ts == nil {
		panic(fmt.Sprintf("dne: connection pool for unregistered tenant %q", tenant))
	}
	if cp.Conns()[0].RNIC() != e.rnic {
		panic(fmt.Sprintf("dne: connection pool of tenant %q is not on node %s's RNIC", tenant, e.cfg.Node))
	}
	e.poolSeq = append(e.poolSeq, cp)
	e.activeFloor += cp.ActiveCount()
	e.poolByNT[e.internNode(remote)][ts.id] = cp
}

// ConnPool returns the pool toward remote for tenant (nil if absent).
func (e *Engine) ConnPool(remote fabric.NodeID, tenant string) *rdma.ConnPool {
	idx, ok := e.nodeIDs[remote]
	ts := e.tenants[tenant]
	if !ok || ts == nil {
		return nil
	}
	return e.poolByNT[idx][ts.id]
}

// ConnPools exposes every installed pool in insertion order (chaos hooks
// and stats).
func (e *Engine) ConnPools() []*rdma.ConnPool { return e.poolSeq }

// AttachFunction creates the descriptor channels between a host function
// and the engine: a Comch pair for the DPU-hosted engine, an SK_MSG socket
// pair for the CPU-hosted CNE.
func (e *Engine) AttachFunction(fn, tenant string) *FnPort {
	if _, ok := e.ports[fn]; ok {
		panic(fmt.Sprintf("dne: function %q already attached", fn))
	}
	fp := &FnPort{fn: fn, tenant: tenant, engine: e}
	i := len(e.portSeq)
	if i&63 == 0 {
		e.ready = append(e.ready, 0)
	}
	// A delivery marks the port ready, then wakes the loop.
	wake := func() {
		e.ready[i>>6] |= 1 << (i & 63)
		e.work.Pulse()
	}
	if e.cfg.Loc == OnDPU {
		fp.toEngine, fp.toFn = dpu.NewComch(e.eng, e.p, comch, wake)
		fp.sendCost, fp.wakeCost = comch.SendCost(e.p), comch.HostWakeupCost(e.p)
	} else {
		fp.toEngine, fp.toFn = ipc.NewSKMsg(e.eng, e.p, wake), ipc.NewSKMsg(e.eng, e.p, nil)
		fp.sendCost, fp.wakeCost = e.p.SKMsgSendCost, e.p.SKMsgWakeup
	}
	e.ports[fn] = fp
	e.portSeq = append(e.portSeq, fp)
	return fp
}

// Stats reports engine counters.
func (e *Engine) Stats() (tx, rx, dropNoRoute, dropNoPort, sendErrors uint64) {
	return e.txCount, e.rxCount, e.dropNoRoute, e.dropNoPort, e.sendErrors
}

// RetryStats reports transport-error recovery counters: descriptors
// re-queued after send failures, and those dropped after exhausting the
// retry budget.
func (e *Engine) RetryStats() (retried, dropped uint64) {
	return e.retriedSends, e.dropRetryBudget
}

// SpecDrops reports losing speculative clones killed at the TX gate (their
// buffers returned to the tenant pool without spending a WR).
func (e *Engine) SpecDrops() uint64 { return e.specDrops }

// RQDebt reports the total replenishment shortfall across tenants: consumed
// RQ slots the keeper has not yet been able to repost. Nonzero sustained
// debt means tenant pools are squeezed (telemetry's keeper-debt gauge).
func (e *Engine) RQDebt() int {
	total := 0
	for _, ts := range e.tenantSeq {
		total += ts.rqDebt
	}
	return total
}

// Start launches the worker loop and the core thread. Call once, before
// Engine.Run on the simulation. Both are poll-mode loops (§3.2) and run as
// engine callbacks: each starts from one same-instant event, and every
// later step continues from the event its last block point scheduled.
func (e *Engine) Start() {
	if e.started {
		panic("dne: Start called twice")
	}
	e.started = true
	e.cqeBuf = make([]rdma.CQE, PollBatch)
	e.rqBufs = make([]mempool.Buffer, ReplenishBatch)
	e.rqDescs = make([]mempool.Descriptor, ReplenishBatch)
	w := &e.w
	w.passFn, w.sentFn, w.ingestedFn = e.pass, e.sent, e.ingested
	w.rxRanFn, w.rxLandFn, w.rxPushFn = e.rxRan, e.rxLand, e.rxPush
	w.txRouteFn, w.txPostFn, w.txSentFn = e.txRoute, e.txPost, e.txSent
	w.dmaLandedFn = e.dmaLanded
	k := &e.k
	k.postedFn, k.tickFn = e.keeperPosted, e.keeperTick
	k.armed = true
	e.rnic.SetKeeperWake(e.keeperWake)
	e.eng.Immediate(w.passFn)
	e.eng.Immediate(e.keeperStart)
}

// pass is the non-blocking run-to-completion event loop (§3.2): it drains
// the CQ for the RX stage, ingests descriptors from function channels, and
// runs the TX stage through the tenant scheduler, from wherever the last
// block point left it until the next one. When a whole pass finds no work
// it parks on the work signal (the pinned core still reports as
// busy-polling; BusyTime tracks the *useful* fraction, which is what the
// paper's refined CPU accounting measures).
func (e *Engine) pass() {
	w := &e.w
	for {
		switch w.stage {
		case stageRX:
			// Drain all completions first so received descriptors reach
			// their functions (and, via their replies, the scheduler)
			// promptly. Completions are mandatory work; leaving them queued
			// would turn the FIFO CQ into the standing buffer and bypass the
			// tenant scheduler.
			if w.cqe == w.cqes {
				w.cqe, w.cqes = 0, e.cq.PollInto(e.cqeBuf)
				if w.cqes == 0 {
					w.stage = stageGateway
					continue
				}
				w.did = true
			}
			cqe := &e.cqeBuf[w.cqe]
			w.cqe++
			if e.handleCQE(cqe) {
				return
			}
		case stageGateway:
			// Gateway-landed descriptors: same RX stage as an RDMA receive,
			// but the buffer arrives owned by the gateway tier instead of
			// the RQ.
			if e.gwIn.Len() == 0 {
				// Ingest serves the ports attached when the pass got here;
				// one attached mid-pass waits for the next.
				w.stage, w.port, w.nPorts = stageIngest, 0, len(e.portSeq)
				continue
			}
			w.did = true
			e.rx(e.gwIn.PopFront(), e.gwOwner)
			return
		case stageIngest:
			// Host -> engine descriptors into the tenant scheduler: each
			// ready port in index order, drained until a pull finds it
			// empty. Ports whose bit is clear are empty, so skipping them
			// serves the same ports in the same order as pulling them all.
			w.port = e.nextReady(w.port, w.nPorts)
			if w.port == w.nPorts {
				w.stage, w.tx = stageTX, 0
				continue
			}
			d, cost, ok := e.portSeq[w.port].engineSidePull()
			if !ok {
				e.ready[w.port>>6] &^= 1 << (w.port & 63)
				w.port++
				continue
			}
			w.did = true
			if cost > 0 {
				w.d = d
				w.sp = d.Trace.Begin(trace.StageDNEIngest, e.actorLabel)
				e.worker.Run(cost, w.ingestedFn)
				return
			}
			e.enqueue(d)
		case stageTX:
			// The tenant scheduler (DWRR/FCFS) arbitrates the engine's
			// transmit capacity — this is where backlog stands under
			// overload, so per-tenant weights govern it (§3.3).
			if w.tx == txBatch {
				w.stage = stageEnd
				continue
			}
			d, ok := e.sched.Next()
			if !ok {
				w.stage = stageEnd
				continue
			}
			w.tx++
			w.did = true
			d.Trace.EndStage(trace.StageDNESched)
			if e.txOne(d) {
				return
			}
		case stageEnd:
			did := w.did
			w.stage, w.did = stageRX, false
			if !did {
				e.work.Notify(w.passFn)
				return
			}
		}
	}
}

// nextReady returns the first port at or after from and below end whose
// ready bit is set, or end if there is none.
func (e *Engine) nextReady(from, end int) int {
	for wi := from >> 6; wi<<6 < end; wi++ {
		word := e.ready[wi]
		if wi == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if word != 0 {
			return min(wi<<6+bits.TrailingZeros64(word), end)
		}
	}
	return end
}

// next clears the descriptor that just left service and resumes the pass.
func (e *Engine) next() {
	w := &e.w
	w.d, w.sp, w.from, w.fp, w.cp = mempool.Descriptor{}, trace.SpanRef{}, "", nil, nil
	e.pass()
}

// ingested finishes an ingest once the channel cost is paid.
func (e *Engine) ingested() {
	e.w.sp.End()
	e.enqueue(e.w.d)
	e.next()
}

// onPathDMA moves n bytes across the PCIe boundary on the SoC DMA engine;
// the loop waits for the copy (§4.1.1) and resumes at then. It resumes one
// same-instant event after the copy lands (the wake hop of a wait on the
// copy's completion), so ties at that instant keep their order.
func (e *Engine) onPathDMA(n int, then func()) {
	e.w.afterDMA = then
	e.socDMA.Transfer(n, e.w.dmaLandedFn)
}

func (e *Engine) dmaLanded() { e.eng.Immediate(e.w.afterDMA) }

// tenantOf resolves a descriptor's tenant state from its interned hint.
func (e *Engine) tenantOf(d *mempool.Descriptor) *tenantState {
	return e.tenantSeq[d.TenantID-1]
}

// txOne starts the TX stage for one descriptor and reports whether the
// pass must wait for it; a killed speculative clone finishes at once.
// Tenant and destination resolve by their interned IDs (slice indexing).
func (e *Engine) txOne(d mempool.Descriptor) bool {
	if spec := d.Msg.Spec; spec != nil && spec() {
		// A speculative clone whose group already completed elsewhere:
		// kill it at the TX gate, before it spends engine work or a WR.
		// The buffer returns to the tenant pool here; the DWRR credit it
		// consumed stays spent (cloning still pays for its queue slot).
		now := e.eng.Now()
		d.Trace.Record(trace.StageSpecCancel, e.actorLabel, now, now)
		e.specDrops++
		e.frDrop(flightrec.KindSpecCancel, &d)
		e.releaseBuffer(d)
		return false
	}
	w := &e.w
	w.d = d
	w.sp = d.Trace.Begin(trace.StageDNETx, e.actorLabel)
	// DNEExtraPerMsg, the artificial load experiments use to cap the engine
	// (Fig. 15's ~110K RPS), is charged here only, behind the tenant
	// scheduler, so the capped capacity is the resource DWRR arbitrates.
	e.worker.Run(e.p.DNETxCost+e.p.DNEExtraPerMsg, w.txRouteFn)
	return true
}

// txRoute resolves the next hop of the descriptor in service once its TX
// work is done.
func (e *Engine) txRoute() {
	w := &e.w
	d := &w.d
	nodeIdx := e.routeByFn[d.DstID-1]
	if nodeIdx < 0 {
		e.txDrop()
		return
	}
	if e.fwd != nil && nodeIdx != e.selfIdx {
		// Cross-node hop with a gateway tier attached: hand the descriptor
		// to the gateway, which owns the inter-node QPs and the route table.
		// A refusal (destination isn't a peer gateway, e.g. the ingress
		// backend) falls through to the engine's direct per-tenant QPs.
		if e.fwd.ForwardRemote(*d, e.nodeNames[nodeIdx]) {
			w.sp.End()
			e.txCount++
			e.fwdOut++
			e.next()
			return
		}
	}
	w.cp = e.poolByNT[nodeIdx][d.TenantID-1]
	if w.cp == nil {
		e.txDrop()
		return
	}
	if e.cfg.Mode == OnPath {
		// Stage payload into SoC memory through the slow DMA engine.
		e.onPathDMA(int(d.Len), w.txPostFn)
		return
	}
	e.txPost()
}

// txDrop drops the descriptor in service for want of a route.
func (e *Engine) txDrop() {
	w := &e.w
	e.dropNoRoute++
	e.frDrop(flightrec.KindDropNoRoute, &w.d)
	e.lost(w.d.Msg.Ctx)
	e.releaseBuffer(w.d)
	w.sp.End()
	e.next()
}

func (e *Engine) txPost() { e.worker.Run(e.p.VerbsPostCost, e.w.txSentFn) }

// txSent posts the send once the verbs work is paid.
func (e *Engine) txSent() {
	w := &e.w
	w.cp.Pick().PostSend(w.d)
	w.sp.End()
	e.txCount++
	e.next()
}

// handleCQE starts the RX stage for one completion and reports whether the
// pass must wait for it.
func (e *Engine) handleCQE(cqe *rdma.CQE) bool {
	switch cqe.Op {
	case rdma.OpSend:
		// Sender-side completion: recycle the source buffer.
		e.w.d, e.w.status = cqe.Desc, cqe.Status
		e.worker.Run(e.p.VerbsPostCost/2, e.w.sentFn)
		return true
	case rdma.OpRecv:
		cqe.Desc.Trace.EndStage(trace.StageRDMACQ)
		e.rx(cqe.Desc, e.rqOwner)
		return true
	}
	return false
}

// sent finishes a send completion once its cost is paid.
func (e *Engine) sent() {
	w := &e.w
	w.d.Trace.EndStage(trace.StageRDMAAck)
	if w.status != rdma.StatusOK {
		e.sendErrors++
		// Transport-level failure (link loss, errored QP): retry the
		// descriptor through the scheduler for at-least-once delivery, up
		// to a bounded budget.
		if w.d.Retries < 5 {
			w.d.Retries++
			e.retriedSends++
			e.enqueue(w.d)
			e.next()
			return
		}
		e.dropRetryBudget++
		e.frDrop(flightrec.KindDropRetry, &w.d)
		e.lost(w.d.Msg.Ctx)
	}
	e.releaseBuffer(w.d)
	e.next()
}

// rx starts the RX stage for one landed descriptor whose buffer arrived
// under from: the RQ owner for an RDMA receive, the gateway owner for a
// gateway landing. The buffer moves to the destination function, or — with
// no such function attached — the descriptor drops and the buffer returns
// to the pool under from.
func (e *Engine) rx(d mempool.Descriptor, from mempool.Owner) {
	w := &e.w
	w.d, w.from = d, from
	w.sp = d.Trace.Begin(trace.StageDNERx, e.actorLabel)
	e.worker.Run(e.p.DNERxCost, w.rxRanFn)
}

func (e *Engine) rxRan() {
	if e.cfg.Mode == OnPath && e.w.from == e.rqOwner {
		// The receive was staged in SoC memory; push it to the host pool.
		e.onPathDMA(int(e.w.d.Len), e.w.rxLandFn)
		return
	}
	e.rxLand()
}

// rxLand hands the descriptor in service to its function.
func (e *Engine) rxLand() {
	w := &e.w
	d := &w.d
	pool := e.tenantOf(d).pool
	fp, ok := e.ports[d.Msg.Dst]
	if !ok {
		e.dropNoPort++
		e.frDrop(flightrec.KindDropNoPort, d)
		e.lost(d.Msg.Ctx)
		if err := pool.Put(d.Buf, w.from); err != nil {
			panic(fmt.Sprintf("dne: landed buffer recycle failed: %v", err))
		}
		w.sp.End()
		e.next()
		return
	}
	if err := pool.Transfer(d.Buf, w.from, mempool.Owner(d.Msg.Dst)); err != nil {
		panic(fmt.Sprintf("dne: RX ownership handoff failed: %v", err))
	}
	e.rxCount++
	w.fp = fp
	if cost := fp.sendCost; cost > 0 {
		e.worker.Run(cost, w.rxPushFn)
		return
	}
	e.rxPush()
}

func (e *Engine) rxPush() {
	w := &e.w
	w.sp.End()
	w.fp.toFn.Send(w.d)
	e.next()
}

// enqueue feeds a descriptor to the tenant scheduler, opening its
// scheduler-wait span (closed when the TX stage pops it).
func (e *Engine) enqueue(d mempool.Descriptor) {
	d.Trace.BeginStage(trace.StageDNESched, e.actorLabel)
	e.sched.Enqueue(d.Tenant, d)
}

// releaseBuffer recycles a TX-side buffer once the engine is done with it:
// on its send completion, on a drop, or when the gateway tier releases a
// forwarded source. The engine owns the buffer from ingest until then; a
// buffer it no longer owns is left alone.
func (e *Engine) releaseBuffer(d mempool.Descriptor) {
	pool := e.tenantOf(&d).pool
	if cur, err := pool.OwnerOf(d.Buf); err == nil && cur == e.engOwner {
		if err := pool.Put(d.Buf, e.engOwner); err != nil {
			panic(fmt.Sprintf("dne: buffer recycle failed: %v", err))
		}
	}
}

// keeperStart is the DNE core thread's first round (§3.2): it pre-posts
// every tenant's receive buffers. Later rounds (keeperTick) replenish each
// tenant's SRQ to match consumed CQEs (§3.5.2) every ReplenishEvery,
// periodically shrink idle connection pools (§3.3) and repair errored QPs.
// A round that would change nothing is not run: the keeper sleeps until the
// RNIC's keeper hook reports work (keeperWake).
func (e *Engine) keeperStart() {
	e.k.initial = true
	e.keeperTick()
}

func (e *Engine) keeperTick() {
	e.k.ten, e.k.nTens = 0, len(e.tenantSeq)
	e.keeperStep()
}

// keeperStep walks the round's remaining tenants. A tenant whose batch
// posted waits on the keeper core for the posting cost; the round ends by
// shrinking and repairing pools and arming the next round one
// ReplenishEvery later — unless that round would be a no-op, in which case
// the keeper sleeps and keeperWake arms the round on the same grid.
func (e *Engine) keeperStep() {
	k := &e.k
	for k.ten < k.nTens {
		ts := e.tenantSeq[k.ten]
		k.ten++
		n := e.cfg.InitialRQ
		if !k.initial {
			n = int(ts.srq.ConsumedReset()) + ts.rqDebt
			if n <= 0 {
				continue
			}
		}
		posted := e.replenish(ts, n)
		if posted > 0 {
			// Batched posting cost on the core thread.
			k.ts, k.want, k.posted = ts, n, posted
			e.keeper.Run(time.Duration(posted)*e.p.VerbsPostCost/4, k.postedFn)
			return
		}
		if !k.initial {
			ts.rqDebt = n
		}
	}
	k.due = e.eng.Now() + e.cfg.ReplenishEvery
	if k.initial {
		// The first regular round always runs: its repair pass covers QPs
		// that errored before Start bound the keeper hook.
		k.initial = false
	} else {
		k.round++
		if k.round%shrinkEvery == 0 {
			for _, cp := range e.poolSeq {
				cp.Shrink()
			}
		}
		// Re-handshake any connections that errored out (link failures).
		for _, cp := range e.poolSeq {
			cp.Repair()
		}
		if e.keeperIdle() {
			k.armed = false
			return
		}
	}
	e.eng.At(k.due, k.tickFn)
}

// keeperIdle reports whether the next round would change nothing: no
// tenant has consumed RQ slots or replenish debt, and no pool holds more
// active QPs than its floor, so neither a replenish nor a shrink would act.
// The round's repair pass just ran, so every pool has scanned the RNIC's
// QP errors up to now. Each condition can only break through the RNIC's
// keeper hook: a receive into an empty consumed count, an activation, or a
// QP error.
func (e *Engine) keeperIdle() bool {
	for _, ts := range e.tenantSeq {
		if ts.srq.Consumed() != 0 || ts.rqDebt != 0 {
			return false
		}
	}
	active := 0
	for _, cp := range e.poolSeq {
		active += cp.ActiveCount()
	}
	return active == e.activeFloor
}

// keeperWake is the RNIC's keeper hook. A sleeping keeper arms the round an
// always-armed keeper would run next, at the first grid instant due +
// i·ReplenishEvery strictly after now. Every grid instant up to now held a
// round that would have found nothing to do, so those only advance the
// round count, which keeps shrinks on the same rounds. An always-armed
// round at exactly now would have been queued a period before the event
// that woke the keeper, so it would have fired first and found nothing.
// While a round is queued or running the wake is a no-op: the round's end
// checks for work again.
func (e *Engine) keeperWake() {
	k := &e.k
	if k.armed {
		return
	}
	k.armed = true
	every := e.cfg.ReplenishEvery
	if now := e.eng.Now(); now >= k.due {
		skipped := (now-k.due)/every + 1
		k.round += int(skipped)
		k.due += skipped * every
	}
	e.eng.At(k.due, k.tickFn)
}

// keeperPosted settles a tenant's batch once its posting cost is paid. The
// shortfall becomes debt only now, not when the batch was posted: the
// keeper-debt gauge may read it in between.
func (e *Engine) keeperPosted() {
	k := &e.k
	if !k.initial {
		k.ts.rqDebt = k.want - k.posted
	}
	k.ts = nil
	e.keeperStep()
}

// replenish posts up to n receive buffers from the tenant pool to its SRQ,
// in batches of ReplenishBatch (doorbell-batched GetN + PostRecvN), and
// returns how many it posted (the caller charges the posting cost and
// carries any shortfall forward as rqDebt). Buffers come out in the same
// order one-at-a-time Gets would deliver, and the posting cost is charged
// per buffer, so batch size does not affect simulation output.
func (e *Engine) replenish(ts *tenantState, n int) int {
	posted := 0
	for posted < n {
		want := n - posted
		if want > len(e.rqBufs) {
			want = len(e.rqBufs)
		}
		got, _ := ts.pool.GetN(e.rqOwner, e.rqBufs[:want])
		if got == 0 {
			break // pool pressure: retry next round
		}
		for i := 0; i < got; i++ {
			e.rqDescs[i] = mempool.Descriptor{Tenant: ts.name, TenantID: ts.id + 1, Buf: e.rqBufs[i]}
		}
		ts.srq.PostRecvN(e.rqDescs[:got])
		posted += got
		if got < want {
			break
		}
	}
	return posted
}

// SchedPending reports descriptors queued in the tenant scheduler (TX
// backlog) — diagnostic for fairness experiments.
func (e *Engine) SchedPending() int { return e.sched.Pending() }
