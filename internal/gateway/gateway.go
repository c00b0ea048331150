// Package gateway is NADINO's multi-node tier: a per-node forwarding object
// that routes cross-node chain hops as DPU-to-DPU one-sided RDMA writes
// over pre-established inter-gateway QP pools (Palladium-style zero-copy
// fabric), with a versioned route table, one-bounce partition failover and
// locality-aware placement.
//
// Data path. The local network engine hands a cross-node descriptor to
// ForwardRemote. The gateway worker — running on the DPU's network cores,
// keeping the forwarding decision off the wimpy general-purpose cores
// (λ-NIC) — pops it, resolves the next hop from the route table, reserves a
// landing slot in the receiving gateway's window for that tenant, and posts
// a one-sided write on the least-congested inter-gateway QP. The write DMAs
// straight into a buffer of the destination tenant's pool on the target
// node, so delivery there is an ownership transfer, never a copy. The
// receiving gateway polls its memory regions (batched, notify-coalesced),
// restocks the consumed slot (the credit that back-pressures senders), and
// either hands the descriptor to its local engine or relays it onward
// (transit) when the destination lives another hop away.
//
// Everything on the steady-state forward path is pooled — pending ring,
// wrState slab under PostWrite, CQ ring, landing-slot rings, batch poll
// buffers — so forwarding allocates nothing (BenchmarkGatewayForward).
package gateway

import (
	"time"

	"nadino/internal/fabric"
	"nadino/internal/flightrec"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/ring"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// gwRetryBudget is how many times a failed forward (QP retry-exceeded or
// flushed on an errored QP) is re-routed before the gateway drops it. The
// route is re-resolved on every attempt, so a retry after a failover-table
// refresh takes the detour.
const gwRetryBudget = 5

// batch is the poll granularity of the worker loop (CQ drain and landed
// ingest), mirroring the DNE's TX batch.
const batch = 64

// Egress is the gateway's hand-off to the node-local data plane — satisfied
// by dne.Engine. GatewayDeliver receives a descriptor whose buffer is owned
// by the gateway (Owner()); the engine transfers it to the destination
// function. GatewayRelease returns a source buffer the engine handed to
// ForwardRemote once its forward completes or is dropped.
type Egress interface {
	GatewayDeliver(d mempool.Descriptor)
	GatewayRelease(d mempool.Descriptor)
}

// tenantReg is one tenant resident on this node: its local pool, the
// gateway's memory region over that pool (the landing target peers write
// into) and the landing-slot window.
type tenantReg struct {
	name string
	pool *mempool.Pool
	mr   *rdma.MR
	// slots holds pre-reserved landing buffers. Peers pop a slot to address
	// a write (the credit), this gateway restocks after consuming a landed
	// descriptor. In the simulation the ring is shared state standing in
	// for slot advertisements piggybacked on RC acks.
	slots ring.Deque[mempool.Buffer]
	// starved counts restocks deferred because the pool was dry; the
	// keeper retries them — withheld credits are the natural backpressure.
	starved int
}

// link is a peer gateway reachable over a pre-established QP pool.
type link struct {
	peer *Gateway
	cp   *rdma.ConnPool
}

// pendingFwd is one queued forward: the descriptor and its destination
// node. The next hop is resolved at pop time so queued traffic follows
// route-table refreshes.
type pendingFwd struct {
	d   mempool.Descriptor
	dst fabric.NodeID
}

// inflightSlot remembers the landing slot a posted write reserved, so a
// failed write can return the credit. Only error paths consult it; on
// success the receiver consumed (and restocked) the slot.
type inflightSlot struct {
	tr  *tenantReg
	own *Gateway
	buf mempool.Buffer
}

// Worker loop stages, in pass order.
const (
	stageCQ     = iota // drain write completions
	stageLanded        // ingest landed writes, tenant by tenant
	stagePump          // forward the pending queue while credits allow
	stageEnd           // end of pass: go again, or park until work arrives
)

// workerState is the forwarding loop's position and the descriptor it has
// in service. Each block point — a Run on the forwarding core, parking on
// the work signal — schedules exactly the one event the blocking loop did,
// and the continuation picks up from here.
type workerState struct {
	stage       int
	did         bool // the pass found work
	cqe, cqes   int  // next entry / entries polled into cqeBuf
	ten, nTens  int  // tenant being drained / tenants when the pass reached it
	land, lands int  // next entry / entries polled into landBuf

	d   mempool.Descriptor // in service
	tr  *tenantReg         // landing tenant (ingest) or target tenant (forward)
	lk  *link              // forward: the link it goes out on
	buf mempool.Buffer     // forward: the reserved landing slot

	// Continuations, bound once at Start.
	passFn, releasedFn, ingestedFn, forwardFn func()
}

// Gateway is the per-node forwarding tier instance.
type Gateway struct {
	eng    *sim.Engine
	p      *params.Params
	self   fabric.NodeID
	net    *fabric.Network
	rnic   *rdma.RNIC
	owner  mempool.Owner
	label  string
	window int

	core *sim.Processor
	cq   *rdma.CQ
	work *sim.Signal

	routes *RouteTable
	egress Egress

	tenants   map[string]*tenantReg
	tenantSeq []*tenantReg
	links     map[fabric.NodeID]*link
	linkSeq   []*link

	pending  ring.Deque[pendingFwd]
	inflight map[uint64]inflightSlot

	cqeBuf  []rdma.CQE
	landBuf []rdma.Landed
	started bool

	// w is the worker loop's state between block points, and keeperTickFn
	// the keeper's bound continuation: both run as engine callbacks (see
	// Start).
	w            workerState
	keeperTickFn func()

	// Conservation counters: acceptIn == delivered + dropped at quiesce,
	// summed across all gateways (transit re-entries are internal).
	acceptIn  uint64
	forwarded uint64 // writes posted, including retries and transit legs
	fwdBytes  uint64
	delivered uint64
	transit   uint64
	retries   uint64
	dropped   uint64

	// Flight recorder hook (optional): drops and route re-convergences
	// land in the ring under this gateway's interned actor id.
	rec      *flightrec.Recorder
	recActor uint16

	// onDrop, when set, learns the context of every descriptor the gateway
	// drops (SetDropHook).
	onDrop func(ctx any)
}

// SetDropHook installs fn to receive the record Ctx of every descriptor the
// gateway drops — unroutable tenant, retry budget spent, unknown
// destination or TTL expired — so the layer that issued it can fail
// whatever waits on it. fn runs in engine context.
func (g *Gateway) SetDropHook(fn func(ctx any)) { g.onDrop = fn }

// SetFlightRecorder routes drop and route-update events into r (nil
// detaches). The actor id is interned once so record paths stay
// allocation-free.
func (g *Gateway) SetFlightRecorder(r *flightrec.Recorder) {
	g.rec = r
	g.recActor = r.Actor("gw@" + string(g.self))
}

// frDrop records one dropped cross-node descriptor: A is the hop count so
// far, B the payload bytes.
func (g *Gateway) frDrop(d *mempool.Descriptor) {
	if g.rec != nil {
		g.rec.Record(flightrec.KindGwDrop, g.recActor, int64(d.Hops), int64(d.Len))
	}
}

// lost hands a dropped descriptor's context to the drop hook (the context
// only, so drop sites keep their descriptors on the stack).
func (g *Gateway) lost(ctx any) {
	if g.onDrop != nil {
		g.onDrop(ctx)
	}
}

// New creates the gateway for node self. The forwarding core runs at the
// DPU's network-core speed; window (0 = params.GwWindow) is the landing-slot
// count pre-reserved per resident tenant.
func New(eng *sim.Engine, p *params.Params, self fabric.NodeID, net *fabric.Network, rnic *rdma.RNIC, window int) *Gateway {
	if window <= 0 {
		window = p.GwWindow
	}
	g := &Gateway{
		eng:      eng,
		p:        p,
		self:     self,
		net:      net,
		rnic:     rnic,
		owner:    mempool.Owner("gw@" + string(self)),
		label:    "gw@" + string(self),
		window:   window,
		core:     sim.NewProcessor(eng, "gw@"+string(self), p.DPUNetSpeed),
		cq:       rdma.NewCQ(eng),
		work:     sim.NewSignal(eng),
		routes:   NewRouteTable(self),
		tenants:  make(map[string]*tenantReg),
		links:    make(map[fabric.NodeID]*link),
		inflight: make(map[uint64]inflightSlot),
	}
	g.cq.SetNotify(g.work.Pulse)
	return g
}

// Node reports the gateway's node.
func (g *Gateway) Node() fabric.NodeID { return g.self }

// Owner is the mempool owner string the gateway holds buffers under.
func (g *Gateway) Owner() mempool.Owner { return g.owner }

// Routes exposes the route table (placement wiring, telemetry, invariants).
func (g *Gateway) Routes() *RouteTable { return g.routes }

// Core exposes the forwarding processor (chaos SlowCores, telemetry).
func (g *Gateway) Core() *sim.Processor { return g.core }

// SetEgress binds the node-local data plane the gateway delivers into.
func (g *Gateway) SetEgress(e Egress) { g.egress = e }

// AddTenant registers a tenant resident on this node: its pool becomes a
// landing region (MR) and window slots are reserved up front. Must run
// before traffic; a pool too small for the window leaves the remainder as
// restock debt the keeper retries.
func (g *Gateway) AddTenant(name string, pool *mempool.Pool) {
	if _, ok := g.tenants[name]; ok {
		return
	}
	mr := g.rnic.RegisterMR(pool)
	mr.SetNotify(g.work.Pulse)
	tr := &tenantReg{name: name, pool: pool, mr: mr}
	for i := 0; i < g.window; i++ {
		b, err := pool.Get(g.owner)
		if err != nil {
			tr.starved = g.window - i
			break
		}
		tr.slots.PushBack(b)
	}
	g.tenants[name] = tr
	g.tenantSeq = append(g.tenantSeq, tr)
}

// Connect establishes the inter-gateway QP pool between a and b (one
// pooled setup handshake) and registers each as the other's peer:
// route-table entry plus access to the peer's landing windows. done runs
// once both are registered, from the event that ends the handshake. The
// QPs complete into each gateway's own CQ; they carry only one-sided
// writes, so no SRQ is attached.
func Connect(eng *sim.Engine, a, b *Gateway, qps int, done func()) {
	rdma.EstablishPair(eng, a.p, "gw", a.rnic, b.rnic, qps, nil, nil, a.cq, b.cq, func(cpA, cpB *rdma.ConnPool) {
		a.addLink(b, cpA)
		b.addLink(a, cpB)
		done()
	})
}

func (g *Gateway) addLink(peer *Gateway, cp *rdma.ConnPool) {
	if _, ok := g.links[peer.self]; ok {
		return
	}
	lk := &link{peer: peer, cp: cp}
	g.links[peer.self] = lk
	g.linkSeq = append(g.linkSeq, lk)
	g.routes.AddPeer(peer.self)
}

// Link returns the QP pool toward peer, nil when not connected (chaos
// crash sets need the per-peer pool, not the whole wiring list).
func (g *Gateway) Link(peer fabric.NodeID) *rdma.ConnPool {
	if lk := g.links[peer]; lk != nil {
		return lk.cp
	}
	return nil
}

// CQ exposes the gateway's completion queue (invariant checks).
func (g *Gateway) CQ() *rdma.CQ { return g.cq }

// Links returns the inter-gateway QP pools in wiring order (chaos targets).
func (g *Gateway) Links() []*rdma.ConnPool {
	out := make([]*rdma.ConnPool, len(g.linkSeq))
	for i, lk := range g.linkSeq {
		out[i] = lk.cp
	}
	return out
}

// Start launches the worker loop and the keeper. Idempotent. Both run as
// engine callbacks: each starts from one same-instant event and continues
// from the event its last block point scheduled.
func (g *Gateway) Start() {
	if g.started {
		return
	}
	g.started = true
	g.cqeBuf = make([]rdma.CQE, batch)
	g.landBuf = make([]rdma.Landed, batch)
	g.routes.Refresh(g.net)
	w := &g.w
	w.passFn, w.releasedFn, w.ingestedFn, w.forwardFn = g.pass, g.released, g.ingested, g.forward
	g.keeperTickFn = g.keeperTick
	g.eng.Immediate(w.passFn)
	g.eng.Immediate(g.keeperStart)
}

// ForwardRemote implements dne.Forwarder: accept a cross-node descriptor
// for forwarding. It refuses (returns false) destinations that are not
// peer gateways — e.g. the ingress backend — which the engine then reaches
// over its own per-tenant QPs. Engine-worker context; nothing blocks here.
func (g *Gateway) ForwardRemote(d mempool.Descriptor, dst fabric.NodeID) bool {
	if g.links[dst] == nil {
		return false
	}
	g.acceptIn++
	g.submit(d, dst)
	return true
}

// submit queues a forward and wakes the worker. Also the internal re-entry
// for retries and transit relays.
func (g *Gateway) submit(d mempool.Descriptor, dst fabric.NodeID) {
	d.Trace.BeginStage(trace.StageGwQueue, g.label)
	g.pending.PushBack(pendingFwd{d: d, dst: dst})
	g.work.Pulse()
}

// wakePeers pulses every peer gateway's worker: called when this gateway's
// slot credits change, since peers may be parked waiting for one.
func (g *Gateway) wakePeers() {
	for _, lk := range g.linkSeq {
		lk.peer.work.Pulse()
	}
}

// pass is the gateway's run-to-completion forwarding core: drain write
// completions, ingest landed writes, then pump the pending queue while
// next-hop credits allow — from wherever the last block point left it until
// the next one. A pass that finds no work parks on the work signal.
func (g *Gateway) pass() {
	w := &g.w
	for {
		switch w.stage {
		case stageCQ:
			if w.cqe == w.cqes {
				w.cqe, w.cqes = 0, g.cq.PollInto(g.cqeBuf)
				if w.cqes == 0 {
					// Landed writes are drained for the tenants registered
					// when the pass got here.
					w.stage, w.ten, w.nTens = stageLanded, 0, len(g.tenantSeq)
					continue
				}
				w.did = true
			}
			e := &g.cqeBuf[w.cqe]
			w.cqe++
			if g.handleCQE(e) {
				return
			}
		case stageLanded:
			if w.land == w.lands {
				if w.ten == w.nTens {
					w.stage = stagePump
					continue
				}
				w.land, w.lands = 0, g.tenantSeq[w.ten].mr.PollLandedInto(g.landBuf)
				if w.lands == 0 {
					w.ten++
					continue
				}
				w.did = true
			}
			l := &g.landBuf[w.land]
			w.land++
			g.ingest(g.tenantSeq[w.ten], l)
			return
		case stagePump:
			if g.pending.Len() == 0 {
				w.stage = stageEnd
				continue
			}
			sent, running := g.pump()
			if !sent {
				w.stage = stageEnd
				continue
			}
			w.did = true
			if running {
				return
			}
		case stageEnd:
			did := w.did
			w.stage, w.did = stageCQ, false
			if !did {
				g.work.Notify(w.passFn)
				return
			}
		}
	}
}

// next clears the descriptor that just left service and resumes the pass.
func (g *Gateway) next() {
	w := &g.w
	w.d, w.tr, w.lk, w.buf = mempool.Descriptor{}, nil, nil, mempool.Buffer{}
	g.pass()
}

// pump forwards the head of the pending queue. sent is false when the head
// is blocked on a landing-slot credit — the worker parks until one returns;
// running reports that the forward waits on the core (forward finishes it).
func (g *Gateway) pump() (sent, running bool) {
	pf := g.pending.Front()
	hop := g.routes.NextHop(pf.dst)
	lk := g.links[hop]
	var tr *tenantReg
	if lk != nil {
		tr = lk.peer.tenants[pf.d.Tenant]
	}
	if tr == nil && hop != pf.dst {
		// The detour node does not host this tenant (no pool to land in):
		// fall back to the direct link and let the transport fight through.
		hop = pf.dst
		lk = g.links[hop]
		if lk != nil {
			tr = lk.peer.tenants[pf.d.Tenant]
		}
	}
	if lk == nil || tr == nil {
		// No peer can land this tenant at all: account and drop.
		g.pending.PopFront()
		d := pf.d
		d.Trace.EndStage(trace.StageGwQueue)
		g.dropped++
		g.frDrop(&d)
		g.lost(d.Msg.Ctx)
		g.releaseSource(d)
		return true, false
	}
	if tr.slots.Len() == 0 {
		return false, false
	}
	g.pending.PopFront()
	w := &g.w
	w.d, w.tr, w.lk = pf.d, tr, lk
	w.d.Trace.EndStage(trace.StageGwQueue)
	w.buf = tr.slots.PopFront()
	g.core.Run(g.p.GwForwardCost+g.p.VerbsPostCost, w.forwardFn)
	return true, true
}

// forward posts the write once the forwarding work is paid.
func (g *Gateway) forward() {
	w := &g.w
	w.d.Trace.BeginStageDetail(trace.StageGwHop, g.label)
	qp := w.lk.cp.Pick()
	id := qp.PostWrite(w.d, rdma.RemoteBuf{MR: w.tr.mr, Buf: w.buf})
	g.inflight[id] = inflightSlot{tr: w.tr, own: w.lk.peer, buf: w.buf}
	g.forwarded++
	g.fwdBytes += uint64(w.d.Len)
	g.next()
}

// handleCQE processes one write completion at the sender and reports
// whether the pass must wait for it.
func (g *Gateway) handleCQE(e *rdma.CQE) bool {
	if e.Op != rdma.OpWrite {
		return false
	}
	sl, reserved := g.inflight[e.WRID]
	if reserved {
		delete(g.inflight, e.WRID)
	}
	d := e.Desc
	if e.Status == rdma.StatusOK {
		g.w.d = d
		g.core.Run(g.p.VerbsPostCost/2, g.w.releasedFn)
		return true
	}
	// Failed forward: the landing slot was never consumed — return the
	// credit — then re-route within the budget. The destination is
	// re-resolved on the retry, so a post-refresh route takes the detour.
	if reserved {
		sl.tr.slots.PushBack(sl.buf)
		sl.own.wakePeers()
	}
	d.Trace.EndStage(trace.StageGwHop)
	if d.Retries < gwRetryBudget {
		if dst, ok := g.routes.NodeOf(d.Msg.Dst); ok {
			d.Retries++
			g.retries++
			g.submit(d, dst)
			return false
		}
	}
	g.dropped++
	g.frDrop(&d)
	g.lost(d.Msg.Ctx)
	g.releaseSource(d)
	return false
}

// released recycles a completed write's source once its cost is paid.
func (g *Gateway) released() {
	g.releaseSource(g.w.d)
	g.next()
}

// ingest starts consuming one landed write: the delivery work runs on the
// forwarding core, then ingested restocks and routes it.
func (g *Gateway) ingest(tr *tenantReg, l *rdma.Landed) {
	d := l.Desc
	d.Buf = l.Buf
	// The sender engine's interned IDs are engine-local; clear them (the
	// local engine stamps its own at GatewayDeliver).
	d.TenantID, d.DstID = 0, 0
	d.Trace.EndStage(trace.StageGwHop)
	g.w.d, g.w.tr = d, tr
	g.core.Run(g.p.GwDeliverCost, g.w.ingestedFn)
}

func (g *Gateway) ingested() {
	g.land(g.w.tr, g.w.d)
	g.next()
}

// land restocks the window a landed write consumed, then delivers it
// locally or relays it onward.
func (g *Gateway) land(tr *tenantReg, d mempool.Descriptor) {
	if b, err := tr.pool.Get(g.owner); err == nil {
		tr.slots.PushBack(b)
		g.wakePeers()
	} else {
		tr.starved++
	}
	dst, ok := g.routes.NodeOf(d.Msg.Dst)
	if !ok {
		g.dropped++
		g.frDrop(&d)
		g.lost(d.Msg.Ctx)
		tr.pool.Put(d.Buf, g.owner)
		return
	}
	if dst == g.self {
		g.delivered++
		g.egress.GatewayDeliver(d)
		return
	}
	// Transit: relay toward the owner using the landed buffer as the
	// onward source; the TTL fences transient loops during failover.
	if int(d.Hops)+1 > g.p.GwMaxHops {
		g.dropped++
		g.frDrop(&d)
		g.lost(d.Msg.Ctx)
		tr.pool.Put(d.Buf, g.owner)
		return
	}
	d.Hops++
	g.transit++
	g.submit(d, dst)
}

// releaseSource returns a forwarded descriptor's source buffer: to the
// local pool when the gateway owns it (a transit leg), otherwise back to
// the engine that handed it over.
func (g *Gateway) releaseSource(d mempool.Descriptor) {
	if tr := g.tenants[d.Tenant]; tr != nil {
		if own, err := tr.pool.OwnerOf(d.Buf); err == nil && own == g.owner {
			tr.pool.Put(d.Buf, g.owner)
			return
		}
	}
	g.egress.GatewayRelease(d)
}

// keeperStart arms the gateway's control loop: every
// params.GwFailoverInterval, keeperTick refreshes the route table from live
// fabric state (partition failover), repairs errored inter-gateway QPs and
// retries starved slot restocks.
func (g *Gateway) keeperStart() { g.eng.After(g.p.GwFailoverInterval, g.keeperTickFn) }

func (g *Gateway) keeperTick() {
	if g.routes.Refresh(g.net) {
		if g.rec != nil {
			g.rec.Record(flightrec.KindGwRouteUpdate, g.recActor, int64(g.routes.Version()), 0)
		}
		g.work.Pulse()
	}
	for _, lk := range g.linkSeq {
		lk.cp.Repair()
	}
	for _, tr := range g.tenantSeq {
		for tr.starved > 0 {
			b, err := tr.pool.Get(g.owner)
			if err != nil {
				break
			}
			tr.slots.PushBack(b)
			tr.starved--
			g.wakePeers()
		}
	}
	g.eng.After(g.p.GwFailoverInterval, g.keeperTickFn)
}

// Stats is a snapshot of the gateway's conservation counters.
type Stats struct {
	AcceptIn  uint64 // descriptors accepted from the local engine
	Forwarded uint64 // one-sided writes posted (retries + transit legs included)
	FwdBytes  uint64
	Delivered uint64 // descriptors handed to the local engine
	Transit   uint64 // relayed legs (multi-hop)
	Retries   uint64 // re-routed after failed writes
	Dropped   uint64 // retry budget, TTL, or unroutable tenant
}

// Stats reports the gateway's counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		AcceptIn:  g.acceptIn,
		Forwarded: g.forwarded,
		FwdBytes:  g.fwdBytes,
		Delivered: g.delivered,
		Transit:   g.transit,
		Retries:   g.retries,
		Dropped:   g.dropped,
	}
}

// Pending reports descriptors queued for forwarding right now.
func (g *Gateway) Pending() int { return g.pending.Len() }

// InflightWrites reports posted writes awaiting completion.
func (g *Gateway) InflightWrites() int { return len(g.inflight) }

// SlotsHeld reports landing-window buffers currently held for tenant (the
// share of the pool invariant checks must credit to the gateway). At
// quiesce this is exactly the restocked window minus any starved debt.
func (g *Gateway) SlotsHeld(tenant string) int {
	tr := g.tenants[tenant]
	if tr == nil {
		return 0
	}
	return tr.slots.Len()
}

// BusyTime reports forwarding-core busy time (telemetry).
func (g *Gateway) BusyTime() time.Duration { return g.core.BusyTime() }
