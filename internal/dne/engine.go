package dne

import (
	"fmt"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/fabric"
	"nadino/internal/flightrec"
	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/metrics"
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
	name   string
	id     int32 // dense index into Engine.tenantSeq (interned at AddTenant)
	weight int
	pool   *mempool.Pool
	mr     *rdma.MR
	srq    *rdma.SRQ
	// rqDebt is the replenishment shortfall carried across keeper rounds:
	// consumed RQ slots the keeper could not repost because the tenant pool
	// was squeezed. Without it, ConsumedReset's count is lost on pool
	// pressure and the ring starves permanently once buffers come back.
	rqDebt int
	// meters drive the Fig. 15 per-tenant bandwidth plots.
	TxMeter *metrics.Meter
	RxMeter *metrics.Meter
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
	pools     map[fabric.NodeID]map[string]*rdma.ConnPool
	poolSeq   []*rdma.ConnPool

	// Interned routing state (§3.2, fast path): tenant and function names
	// resolve to dense IDs at registration time, so the per-request TX/RX
	// path does slice indexing instead of string-map lookups. Descriptors
	// carry the IDs as +1-offset hints (zero = unresolved, fall back to the
	// maps above). IDs are engine-local and never cross the wire.
	fnIDs     map[string]int32
	routeByFn []int32 // fn ID -> node index, -1 = no route
	nodeIDs   map[fabric.NodeID]int32
	nodeNames []fabric.NodeID
	poolByNT  [][]*rdma.ConnPool // [node index][tenant ID]
	limitByID []*tokenBucket     // tenant ID -> rate limit (nil = none)

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
	prioSched *Priority

	// limits holds optional per-tenant token-bucket rate limits enforced
	// in the TX stage (the kind of workload-specific policy §4.2 says
	// operators can drop into the DNE).
	limits map[string]*tokenBucket

	txCount, rxCount uint64
	dropNoRoute      uint64
	dropNoPort       uint64
	sendErrors       uint64
	retriedSends     uint64
	dropRetryBudget  uint64
	rateDeferred     uint64
	specDrops        uint64 // losing clones killed at the TX gate

	// Flight recorder hook (optional): drop events land in the ring with
	// this engine's interned actor id. Nil-safe via the rec==nil branch.
	rec      *flightrec.Recorder
	recActor uint16

	// onDrop, when set, learns the context of every descriptor the engine
	// loses for good (SetDropHook).
	onDrop func(ctx any)

	// LoopIters and LoopWaits count worker-loop iterations and idle waits
	// (diagnostics).
	LoopIters, LoopWaits uint64
	// Stage wall-time accounting (diagnostics).
	IngestWall, TxWall, RxWall time.Duration

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
		limits:     make(map[string]*tokenBucket),
		ports:      make(map[string]*FnPort),
		pools:      make(map[fabric.NodeID]map[string]*rdma.ConnPool),
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
	switch cfg.Sched {
	case SchedDWRR:
		e.dwrrSched = NewDWRR(cfg.QuantumUnit)
		e.sched = e.dwrrSched
	case SchedPriority:
		e.prioSched = NewPriority()
		e.sched = e.prioSched
	default:
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
// the worker loop transfers it to the destination function. Engine context;
// never blocks.
func (e *Engine) GatewayDeliver(d mempool.Descriptor) {
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
	ts := &tenantState{
		name:    tenant,
		id:      int32(len(e.tenantSeq)),
		weight:  weight,
		pool:    pool,
		mr:      e.rnic.RegisterMR(pool), // doca_mmap_create_from_export
		srq:     rdma.NewSRQ(tenant),
		TxMeter: metrics.NewMeter(),
		RxMeter: metrics.NewMeter(),
	}
	e.tenants[tenant] = ts
	e.tenantSeq = append(e.tenantSeq, ts)
	e.limitByID = append(e.limitByID, nil)
	for i := range e.poolByNT {
		e.poolByNT[i] = append(e.poolByNT[i], nil)
	}
	if e.dwrrSched != nil {
		e.dwrrSched.SetWeight(tenant, weight)
	}
	if e.prioSched != nil {
		e.prioSched.SetWeight(tenant, weight)
	}
	return ts.srq
}

// SetTenantWeight re-weights a tenant's scheduler share at runtime — the
// management-plane hot-reload path (weights are otherwise fixed at
// AddTenant). Reports whether the tenant exists; engines without a weighted
// scheduler accept the call as a recorded no-op.
func (e *Engine) SetTenantWeight(tenant string, weight int) bool {
	ts, ok := e.tenants[tenant]
	if !ok {
		return false
	}
	ts.weight = weight
	if e.dwrrSched != nil {
		e.dwrrSched.SetWeight(tenant, weight)
	}
	if e.prioSched != nil {
		e.prioSched.SetWeight(tenant, weight)
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
// tenant's dense id (-1 when unknown), B the payload bytes. Drop paths are
// rare by construction, so the extra tenant resolve costs nothing in
// steady state.
func (e *Engine) frDrop(k flightrec.Kind, d *mempool.Descriptor) {
	if e.rec == nil {
		return
	}
	var tid int64 = -1
	if ts := e.tenantOf(d); ts != nil {
		tid = int64(ts.id)
	}
	e.rec.Record(k, e.recActor, tid, int64(d.Len))
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

// Tenant returns a tenant's meters for experiment plumbing.
func (e *Engine) Tenant(tenant string) (tx, rx *metrics.Meter) {
	ts := e.tenants[tenant]
	if ts == nil {
		return nil, nil
	}
	return ts.TxMeter, ts.RxMeter
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
// tenant.
func (e *Engine) AddConnPool(remote fabric.NodeID, tenant string, cp *rdma.ConnPool) {
	m, ok := e.pools[remote]
	if !ok {
		m = make(map[string]*rdma.ConnPool)
		e.pools[remote] = m
	}
	m[tenant] = cp
	e.poolSeq = append(e.poolSeq, cp)
	if ts := e.tenants[tenant]; ts != nil {
		e.poolByNT[e.internNode(remote)][ts.id] = cp
	}
}

// ConnPool returns the pool toward remote for tenant (nil if absent).
func (e *Engine) ConnPool(remote fabric.NodeID, tenant string) *rdma.ConnPool {
	return e.pools[remote][tenant]
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
	e.internFn(fn)
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

// perMsgExtra is the artificial per-message load experiments use to cap the
// engine's throughput (Fig. 15's ~110K RPS configuration). It is charged in
// the TX stage only, behind the tenant scheduler, so the capped capacity is
// the resource DWRR arbitrates.
func (e *Engine) perMsgExtra() time.Duration { return e.p.DNEExtraPerMsg }

// workerLoop is the non-blocking run-to-completion event loop (§3.2): it
// ingests descriptors from function channels, runs the TX stage through the
// tenant scheduler, and drains the CQ for the RX stage. When there is no
// work it parks on the work signal (the pinned core still reports as
// busy-polling; BusyTime tracks the *useful* fraction, which is what the
// paper's refined CPU accounting measures).
func (e *Engine) workerLoop(pr *sim.Proc) {
	const batch = 16
	for {
		e.LoopIters++
		did := false

		t0 := e.eng.Now()
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

		// Gateway-landed descriptors: same RX treatment as OpRecv, but the
		// buffer arrives owned by the gateway tier instead of the RQ.
		for e.gwIn.Len() > 0 {
			e.gwDeliver(pr, e.gwIn.PopFront())
			did = true
		}

		t1 := e.eng.Now()
		e.RxWall += t1 - t0
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

		t2 := e.eng.Now()
		e.IngestWall += t2 - t1
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
		e.TxWall += e.eng.Now() - t2

		if !did {
			e.LoopWaits++
			e.work.Wait(pr)
		}
	}
}

// tenantOf resolves a descriptor's tenant state: slice indexing via the
// interned hint when present, map fallback otherwise.
func (e *Engine) tenantOf(d *mempool.Descriptor) *tenantState {
	if d.TenantID > 0 {
		return e.tenantSeq[d.TenantID-1]
	}
	return e.tenants[d.Tenant]
}

// deferRateLimited holds a descriptor that exceeded its tenant's rate limit
// until the bucket refills, then feeds it back through the scheduler. Kept
// out of txOne so its closure (which captures d) only heap-allocates the
// descriptor on the rate-limited slow path.
func (e *Engine) deferRateLimited(b *tokenBucket, d mempool.Descriptor) {
	e.rateDeferred++
	wait := b.eta(e.eng.Now())
	// The rate-limit hold reads as scheduler time: open the span now,
	// before the timed re-enqueue, so the wait is attributed.
	d.Trace.BeginStage(trace.StageDNESched, e.actorLabel)
	e.eng.After(wait, func() {
		e.sched.Enqueue(d.Tenant, d)
		e.work.Pulse()
	})
}

// txOne runs one descriptor through the TX stage. Routing runs on the
// interned fast path: tenant and destination resolve by dense ID (slice
// indexing) when the descriptor carries hints, with the string maps as the
// slow-path fallback for hintless callers.
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
	ts := e.tenantOf(&d)
	var b *tokenBucket
	if ts != nil {
		b = e.limitByID[ts.id]
	} else {
		b = e.limits[d.Tenant]
	}
	if b != nil && !b.take(e.eng.Now()) {
		// Out-of-line so the re-enqueue closure doesn't force d to escape
		// to the heap on the (closure-free) fast path below.
		e.deferRateLimited(b, d)
		return
	}
	sp := d.Trace.Begin(trace.StageDNETx, e.actorLabel)
	e.worker.Exec(pr, e.p.DNETxCost+e.perMsgExtra())
	nodeIdx := int32(-1)
	if d.DstID > 0 {
		nodeIdx = e.routeByFn[d.DstID-1]
	} else if id, ok := e.fnIDs[d.Dst]; ok {
		nodeIdx = e.routeByFn[id]
	}
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
			if ts != nil {
				ts.TxMeter.Inc(1)
			}
			return
		}
	}
	var cp *rdma.ConnPool
	if ts != nil {
		cp = e.poolByNT[nodeIdx][ts.id]
	} else {
		cp = e.pools[e.nodeNames[nodeIdx]][d.Tenant]
	}
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
	if ts != nil {
		ts.TxMeter.Inc(1)
	}
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
			if d.Tenant != "" && d.Retries < 5 {
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
		sp := cqe.Desc.Trace.Begin(trace.StageDNERx, e.actorLabel)
		e.worker.Exec(pr, e.p.DNERxCost)
		if e.cfg.Mode == OnPath {
			// Data was staged in SoC memory; push it to the host pool.
			e.socDMA.TransferBlocking(pr, cqe.Bytes)
		}
		d := cqe.Desc
		fp, ok := e.ports[d.Dst]
		if !ok {
			e.dropNoPort++
			e.frDrop(flightrec.KindDropNoPort, &d)
			e.lost(d.Ctx)
			e.releaseRQBuffer(d)
			sp.End()
			return
		}
		ts := e.tenantOf(&d)
		if ts != nil {
			// Hand the landed buffer from the RQ owner to the function.
			if err := ts.pool.Transfer(d.Buf, e.rqOwner, mempool.Owner(d.Dst)); err != nil {
				panic(fmt.Sprintf("dne: RX ownership handoff failed: %v", err))
			}
			ts.RxMeter.Inc(1)
		}
		e.rxCount++
		cost := fp.engineSidePushCost()
		if cost > 0 {
			e.worker.Exec(pr, cost)
		}
		sp.End()
		fp.engineSidePush(d)
	}
}

// gwDeliver ingests a gateway-landed descriptor for a local function: the
// twin of the OpRecv path, with the buffer arriving under the gateway's
// owner instead of the RQ's.
func (e *Engine) gwDeliver(pr *sim.Proc, d mempool.Descriptor) {
	sp := d.Trace.Begin(trace.StageDNERx, e.actorLabel)
	e.worker.Exec(pr, e.p.DNERxCost)
	fp, ok := e.ports[d.Dst]
	if !ok {
		e.dropNoPort++
		e.frDrop(flightrec.KindDropNoPort, &d)
		e.lost(d.Ctx)
		if ts := e.tenantOf(&d); ts != nil {
			if err := ts.pool.Put(d.Buf, e.gwOwner); err != nil {
				panic(fmt.Sprintf("dne: gateway buffer recycle failed: %v", err))
			}
		}
		sp.End()
		return
	}
	ts := e.tenantOf(&d)
	if ts != nil {
		if err := ts.pool.Transfer(d.Buf, e.gwOwner, mempool.Owner(d.Dst)); err != nil {
			panic(fmt.Sprintf("dne: gateway RX ownership handoff failed: %v", err))
		}
		ts.RxMeter.Inc(1)
	}
	e.rxCount++
	if cost := fp.engineSidePushCost(); cost > 0 {
		e.worker.Exec(pr, cost)
	}
	sp.End()
	fp.engineSidePush(d)
}

// actor labels this engine's spans.
func (e *Engine) actor() string { return e.actorLabel }

// enqueue feeds a descriptor to the tenant scheduler, opening its
// scheduler-wait span (closed when the TX stage pops it).
func (e *Engine) enqueue(d mempool.Descriptor) {
	d.Trace.BeginStage(trace.StageDNESched, e.actorLabel)
	e.sched.Enqueue(d.Tenant, d)
}

// releaseBuffer recycles a buffer the engine owns after a send completes or
// a drop occurs. Send CQEs carry no descriptor in this model, so TX-side
// recycling happens here at post time bookkeeping: the engine owns the
// buffer from ingest until the send completes; we recycle on the send CQE
// via pendingTx tracking below.
func (e *Engine) releaseBuffer(d mempool.Descriptor) {
	if d.Tenant == "" {
		return
	}
	ts := e.tenantOf(&d)
	if ts == nil {
		return
	}
	if cur, err := ts.pool.OwnerOf(d.Buf); err == nil && cur == e.engOwner {
		if err := ts.pool.Put(d.Buf, e.engOwner); err != nil {
			panic(fmt.Sprintf("dne: buffer recycle failed: %v", err))
		}
	}
}

// releaseRQBuffer recycles an RQ-owned landed buffer on drops.
func (e *Engine) releaseRQBuffer(d mempool.Descriptor) {
	ts := e.tenantOf(&d)
	if ts == nil {
		return
	}
	if err := ts.pool.Put(d.Buf, e.rqOwner); err != nil {
		panic(fmt.Sprintf("dne: RQ buffer recycle failed: %v", err))
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

// PortBacklog reports descriptors delivered to a function's channel but not
// yet ingested by the engine loop.
func (e *Engine) PortBacklog(fn string) int {
	fp := e.ports[fn]
	if fp == nil {
		return 0
	}
	if fp.comch != nil {
		return fp.comch.PendingFromHost()
	}
	return fp.toEngine.Pending()
}

// tokenBucket is a standard rate limiter: rate tokens/second, capped burst.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Duration
}

func (b *tokenBucket) refill(now time.Duration) {
	if now > b.last {
		b.tokens += b.rate * (now - b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// take consumes one token if available (with an epsilon so floating-point
// refill rounding cannot wedge the bucket just below a whole token).
func (b *tokenBucket) take(now time.Duration) bool {
	b.refill(now)
	if b.tokens >= 1-1e-9 {
		b.tokens--
		return true
	}
	return false
}

// eta reports how long until one token accrues, floored at 1us so deferred
// descriptors always make wall-clock progress.
func (b *tokenBucket) eta(now time.Duration) time.Duration {
	b.refill(now)
	if b.tokens >= 1-1e-9 {
		return 0
	}
	d := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// SetRateLimit caps a tenant's transmit rate at rps (0 removes the cap).
// Enforcement happens in the TX stage, after scheduling — a per-tenant
// policy plugged into the engine, as §4.2 envisions.
func (e *Engine) SetRateLimit(tenant string, rps float64) {
	var b *tokenBucket
	if rps > 0 {
		b = &tokenBucket{rate: rps, burst: rps / 100 * 2, tokens: rps / 100, last: e.eng.Now()}
	}
	if ts := e.tenants[tenant]; ts != nil {
		e.limitByID[ts.id] = b
		return
	}
	if b == nil {
		delete(e.limits, tenant)
		return
	}
	e.limits[tenant] = b
}

// RateDeferred reports descriptors delayed by rate limits.
func (e *Engine) RateDeferred() uint64 { return e.rateDeferred }
