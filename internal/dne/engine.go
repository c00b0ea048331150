package dne

import (
	"fmt"
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

// Config assembles an engine.
type Config struct {
	Node    fabric.NodeID
	Mode    Mode
	Loc     Location
	Sched   SchedulerKind
	Channel dpu.ChannelMode
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

// New assembles an engine. For OnDPU, d supplies the cores, SoC DMA and
// integrated RNIC; for OnCPU, d still supplies the node's RNIC (the DPU
// stays in NIC mode) while the loop runs on hostCore.
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

// SetDropHook installs fn to receive the Ctx of every descriptor the engine
// drops for good — no route, no port, or the transport retry budget spent —
// so the layer that issued it can fail whatever waits on it. Losing
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
// tenant, which must already be added.
func (e *Engine) AddConnPool(remote fabric.NodeID, tenant string, cp *rdma.ConnPool) {
	ts := e.tenants[tenant]
	if ts == nil {
		panic(fmt.Sprintf("dne: connection pool for unregistered tenant %q", tenant))
	}
	e.poolSeq = append(e.poolSeq, cp)
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

// AttachFunction creates the descriptor channel between a host function and
// the engine: a Comch endpoint for the DPU-hosted engine, an SK_MSG socket
// pair for the CPU-hosted CNE.
func (e *Engine) AttachFunction(fn, tenant string) *FnPort {
	if _, ok := e.ports[fn]; ok {
		panic(fmt.Sprintf("dne: function %q already attached", fn))
	}
	fp := &FnPort{fn: fn, tenant: tenant, engine: e}
	if e.cfg.Loc == OnDPU {
		fp.comch = dpu.NewEndpoint(e.eng, e.p, e.cfg.Channel, len(e.ports), fn, tenant, e.work)
	} else {
		fp.toEngine = ipc.NewSKMsg(e.eng, e.p, e.work)
		fp.toFn = ipc.NewSKMsg(e.eng, e.p, nil)
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
// Engine.Run on the simulation.
func (e *Engine) Start() {
	if e.started {
		panic("dne: Start called twice")
	}
	e.started = true
	e.cqeBuf = make([]rdma.CQE, PollBatch)
	e.rqBufs = make([]mempool.Buffer, ReplenishBatch)
	e.rqDescs = make([]mempool.Descriptor, ReplenishBatch)
	e.eng.Spawn(fmt.Sprintf("dne-worker@%s", e.cfg.Node), e.workerLoop)
	e.eng.Spawn(fmt.Sprintf("dne-keeper@%s", e.cfg.Node), e.keeperLoop)
}

// workerLoop is the non-blocking run-to-completion event loop (§3.2): it
// ingests descriptors from function channels, runs the TX stage through the
// tenant scheduler, and drains the CQ for the RX stage. When there is no
// work it parks on the work signal (the pinned core still reports as
// busy-polling; BusyTime tracks the *useful* fraction, which is what the
// paper's refined CPU accounting measures).
func (e *Engine) workerLoop(pr *sim.Proc) {
	const batch = 16
	for {
		did := false

		// RX stage first: drain all completions so received descriptors
		// reach their functions (and, via their replies, the scheduler)
		// promptly. Completions are mandatory work; leaving them queued
		// would turn the FIFO CQ into the standing buffer and bypass the
		// tenant scheduler.
		for {
			n := e.cq.PollInto(e.cqeBuf)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				e.handleCQE(pr, e.cqeBuf[i])
			}
			did = true
		}

		// Gateway-landed descriptors: same RX stage as an RDMA receive,
		// but the buffer arrives owned by the gateway tier instead of the RQ.
		for e.gwIn.Len() > 0 {
			e.rx(pr, e.gwIn.PopFront(), e.gwOwner)
			did = true
		}

		// Ingest host -> engine descriptors into the tenant scheduler.
		for _, fp := range e.portSeq {
			for {
				d, cost, ok := fp.engineSidePull()
				if !ok {
					break
				}
				if cost > 0 {
					sp := d.Trace.Begin(trace.StageDNEIngest, e.actorLabel)
					e.worker.Exec(pr, cost)
					sp.End()
				}
				e.enqueue(d)
				did = true
			}
		}

		// TX stage: the tenant scheduler (DWRR/FCFS) arbitrates the
		// engine's transmit capacity — this is where backlog stands under
		// overload, so per-tenant weights govern it (§3.3).
		for i := 0; i < batch; i++ {
			d, ok := e.sched.Next()
			if !ok {
				break
			}
			d.Trace.EndStage(trace.StageDNESched)
			e.txOne(pr, d)
			did = true
		}

		if !did {
			e.work.Wait(pr)
		}
	}
}

// tenantOf resolves a descriptor's tenant state from its interned hint.
func (e *Engine) tenantOf(d *mempool.Descriptor) *tenantState {
	return e.tenantSeq[d.TenantID-1]
}

// txOne runs one descriptor through the TX stage. Tenant and destination
// resolve by their interned IDs (slice indexing).
func (e *Engine) txOne(pr *sim.Proc, d mempool.Descriptor) {
	if d.Spec != nil && d.Spec() {
		// A speculative clone whose group already completed elsewhere:
		// kill it at the TX gate, before it spends engine work or a WR.
		// The buffer returns to the tenant pool here; the DWRR credit it
		// consumed stays spent (cloning still pays for its queue slot).
		now := e.eng.Now()
		d.Trace.Record(trace.StageSpecCancel, e.actorLabel, now, now)
		e.specDrops++
		e.frDrop(flightrec.KindSpecCancel, &d)
		e.releaseBuffer(d)
		return
	}
	sp := d.Trace.Begin(trace.StageDNETx, e.actorLabel)
	// DNEExtraPerMsg, the artificial load experiments use to cap the engine
	// (Fig. 15's ~110K RPS), is charged here only, behind the tenant
	// scheduler, so the capped capacity is the resource DWRR arbitrates.
	e.worker.Exec(pr, e.p.DNETxCost+e.p.DNEExtraPerMsg)
	nodeIdx := e.routeByFn[d.DstID-1]
	if nodeIdx < 0 {
		e.dropNoRoute++
		e.frDrop(flightrec.KindDropNoRoute, &d)
		e.lost(d.Ctx)
		e.releaseBuffer(d)
		sp.End()
		return
	}
	if e.fwd != nil && nodeIdx != e.selfIdx {
		// Cross-node hop with a gateway tier attached: hand the descriptor
		// to the gateway, which owns the inter-node QPs and the route table.
		// A refusal (destination isn't a peer gateway, e.g. the ingress
		// backend) falls through to the engine's direct per-tenant QPs.
		if e.fwd.ForwardRemote(d, e.nodeNames[nodeIdx]) {
			sp.End()
			e.txCount++
			e.fwdOut++
			return
		}
	}
	cp := e.poolByNT[nodeIdx][d.TenantID-1]
	if cp == nil {
		e.dropNoRoute++
		e.frDrop(flightrec.KindDropNoRoute, &d)
		e.lost(d.Ctx)
		e.releaseBuffer(d)
		sp.End()
		return
	}
	if e.cfg.Mode == OnPath {
		// Stage payload into SoC memory through the slow DMA engine; the
		// run-to-completion loop waits for it (§4.1.1).
		e.socDMA.TransferBlocking(pr, d.Len)
	}
	e.worker.Exec(pr, e.p.VerbsPostCost)
	qp := cp.Pick()
	qp.PostSend(d)
	sp.End()
	e.txCount++
}

// handleCQE runs the RX stage for one completion.
func (e *Engine) handleCQE(pr *sim.Proc, cqe rdma.CQE) {
	switch cqe.Op {
	case rdma.OpSend:
		// Sender-side completion: recycle the source buffer.
		e.worker.Exec(pr, e.p.VerbsPostCost/2)
		cqe.Desc.Trace.EndStage(trace.StageRDMAAck)
		if cqe.Status != rdma.StatusOK {
			e.sendErrors++
			// Transport-level failure (link loss, errored QP): retry the
			// descriptor through the scheduler for at-least-once delivery,
			// up to a bounded budget.
			d := cqe.Desc
			if d.Retries < 5 {
				d.Retries++
				e.retriedSends++
				e.enqueue(d)
				return
			}
			e.dropRetryBudget++
			e.frDrop(flightrec.KindDropRetry, &d)
			e.lost(d.Ctx)
		}
		e.releaseBuffer(cqe.Desc)
	case rdma.OpRecv:
		cqe.Desc.Trace.EndStage(trace.StageRDMACQ)
		e.rx(pr, cqe.Desc, e.rqOwner)
	}
}

// rx runs the RX stage for one landed descriptor whose buffer arrived under
// from: the RQ owner for an RDMA receive, the gateway owner for a gateway
// landing. The buffer moves to the destination function, or — with no such
// function attached — the descriptor drops and the buffer returns to the
// pool under from.
func (e *Engine) rx(pr *sim.Proc, d mempool.Descriptor, from mempool.Owner) {
	sp := d.Trace.Begin(trace.StageDNERx, e.actorLabel)
	e.worker.Exec(pr, e.p.DNERxCost)
	if e.cfg.Mode == OnPath && from == e.rqOwner {
		// The receive was staged in SoC memory; push it to the host pool.
		e.socDMA.TransferBlocking(pr, d.Len)
	}
	pool := e.tenantOf(&d).pool
	fp, ok := e.ports[d.Dst]
	if !ok {
		e.dropNoPort++
		e.frDrop(flightrec.KindDropNoPort, &d)
		e.lost(d.Ctx)
		if err := pool.Put(d.Buf, from); err != nil {
			panic(fmt.Sprintf("dne: landed buffer recycle failed: %v", err))
		}
		sp.End()
		return
	}
	if err := pool.Transfer(d.Buf, from, mempool.Owner(d.Dst)); err != nil {
		panic(fmt.Sprintf("dne: RX ownership handoff failed: %v", err))
	}
	e.rxCount++
	if cost := fp.engineSidePushCost(); cost > 0 {
		e.worker.Exec(pr, cost)
	}
	sp.End()
	fp.engineSidePush(d)
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

// keeperLoop is the DNE core thread (§3.2): it pre-posts receive buffers
// and then replenishes each tenant's SRQ to match consumed CQEs (§3.5.2),
// and periodically shrinks idle connection pools (§3.3).
func (e *Engine) keeperLoop(pr *sim.Proc) {
	// Initial posting.
	for _, ts := range e.tenantSeq {
		e.replenish(pr, ts, e.cfg.InitialRQ)
	}
	shrinkEvery := 100 // replenish rounds between pool shrinks
	round := 0
	for {
		pr.Sleep(e.cfg.ReplenishEvery)
		for _, ts := range e.tenantSeq {
			n := int(ts.srq.ConsumedReset()) + ts.rqDebt
			if n > 0 {
				ts.rqDebt = n - e.replenish(pr, ts, n)
			}
		}
		round++
		if round%shrinkEvery == 0 {
			for _, cp := range e.poolSeq {
				cp.Shrink()
			}
		}
		// Re-handshake any connections that errored out (link failures).
		for _, cp := range e.poolSeq {
			cp.Repair()
		}
	}
}

// replenish posts up to n receive buffers from the tenant pool to its SRQ,
// in batches of ReplenishBatch (doorbell-batched GetN + PostRecvN), and
// returns how many it posted (the caller carries any shortfall forward as
// rqDebt). Buffers come out in the same order one-at-a-time Gets would
// deliver, and the posting cost is charged per buffer, so batch size does
// not affect simulation output.
func (e *Engine) replenish(pr *sim.Proc, ts *tenantState, n int) int {
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
	if posted > 0 {
		// Batched posting cost on the core thread.
		e.keeper.Exec(pr, time.Duration(posted)*e.p.VerbsPostCost/4)
	}
	return posted
}

// SchedPending reports descriptors queued in the tenant scheduler (TX
// backlog) — diagnostic for fairness experiments.
func (e *Engine) SchedPending() int { return e.sched.Pending() }
