// Package rdma is a verbs-level model of an RDMA-capable NIC and its RC
// transport: queue pairs, shared receive queues, completion queues, memory
// regions, two-sided send/recv, one-sided write/read, remote atomics, RNR
// retry, an ICM-style QP cache with miss penalties, and a shadow-QP
// connection pool (§3.3).
//
// Timing follows the ConnectX-6 path: software posts a WR (the caller pays
// the post cost on its own core), the RNIC pipeline serializes per-WR
// processing and PCIe DMA, the fabric serializes packets, and the receiving
// RNIC matches (for two-sided) or lands data directly (one-sided). All
// constants live in internal/params.
package rdma

import (
	"container/list"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/ring"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// Op identifies a verb.
type Op int8

// Verbs supported by the model.
const (
	OpSend Op = iota
	OpRecv
	OpWrite
	OpRead
	OpCAS
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpCAS:
		return "CAS"
	}
	return "?"
}

// Status is a completion status.
type Status int8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusRNRExceeded
	// StatusRetryExceeded: the transport retransmitted TransportRetries
	// times without an ack (e.g. the link stayed down); the QP is now in
	// the error state.
	StatusRetryExceeded
	// StatusQPError: the WR was posted to a QP already in the error state.
	StatusQPError
)

// maxRNRRetries is the RC retry budget before the sender sees an error.
const maxRNRRetries = 7

// wireHeaderBytes approximates per-message RoCE/IB header overhead.
const wireHeaderBytes = 60

// CQE is a completion queue entry. Consumers read entries in place from
// their poll buffer (&buf[i]) rather than copying them out.
type CQE struct {
	WRID   uint64
	Op     Op
	Status Status
	Bytes  int
	QP     *QP
	// Desc carries the receive-side buffer descriptor for OpRecv
	// completions (the posted buffer, now holding the payload and the
	// sender's routing metadata) and the source descriptor for OpSend and
	// OpWrite completions (so senders can recycle the source buffer).
	Desc mempool.Descriptor
}

// CQ is a completion queue backed by a growable power-of-two ring buffer.
// Consumers either Poll/PollInto it or block on Wait. Notification is
// coalesced doorbell-style: waiters and the notify hook fire only on the
// empty -> non-empty transition, one wake per drain batch rather than one
// per CQE. (This is behaviorally identical to per-CQE pulsing: a consumer
// only parks after draining the ring to empty, so the first push after a
// park is always an empty -> non-empty push; later pushes in the same batch
// found no parked waiter under either scheme.)
type CQ struct {
	eng    *sim.Engine
	buf    []CQE // power-of-two ring
	head   int   // index of oldest entry
	n      int   // live entries
	sig    *sim.Signal
	onPush func() // optional hook: prod an event loop
}

// NewCQ returns an empty completion queue.
func NewCQ(eng *sim.Engine) *CQ {
	return &CQ{eng: eng, sig: sim.NewSignal(eng)}
}

// SetNotify installs a callback invoked (in engine context) whenever the
// queue transitions from empty to non-empty. Event-loop consumers use it to
// avoid missed wakeups.
func (cq *CQ) SetNotify(fn func()) { cq.onPush = fn }

// grow doubles the ring (min 16), linearizing live entries to the front.
func (cq *CQ) grow() {
	c := len(cq.buf) * 2
	if c < 16 {
		c = 16
	}
	buf := make([]CQE, c)
	cq.copyTo(buf)
	cq.buf = buf
	cq.head = 0
}

// copyTo linearizes the live entries (in CQE order) into dst.
func (cq *CQ) copyTo(dst []CQE) {
	first := cq.buf[cq.head:]
	if len(first) > cq.n {
		first = first[:cq.n]
	}
	k := copy(dst, first)
	copy(dst[k:], cq.buf[:cq.n-k])
}

func (cq *CQ) push(e CQE) {
	// Completion is the transfer/ack boundary for the descriptor's trace:
	// arrival closes the in-flight span, and the time until a consumer
	// drains this CQE is its own stage.
	switch e.Op {
	case OpRecv, OpWrite:
		e.Desc.Trace.EndStage(trace.StageRDMA)
		if e.Op == OpRecv {
			e.Desc.Trace.BeginStage(trace.StageRDMACQ, "cq")
		}
	case OpSend:
		e.Desc.Trace.BeginStageDetail(trace.StageRDMAAck, "cq")
	}
	if cq.n == len(cq.buf) {
		cq.grow()
	}
	cq.buf[(cq.head+cq.n)&(len(cq.buf)-1)] = e
	cq.n++
	if cq.n == 1 {
		cq.sig.Pulse()
		if cq.onPush != nil {
			cq.onPush()
		}
	}
}

// PollInto removes up to len(buf) entries into buf and reports how many, in
// exact CQE order. The zero-alloc polling path: callers reuse buf across
// drains.
func (cq *CQ) PollInto(buf []CQE) int {
	n := cq.n
	if n > len(buf) {
		n = len(buf)
	}
	if n == 0 {
		return 0
	}
	mask := len(cq.buf) - 1
	var zero CQE
	for i := 0; i < n; i++ {
		j := (cq.head + i) & mask
		buf[i] = cq.buf[j]
		cq.buf[j] = zero // release descriptor references for GC
	}
	cq.head = (cq.head + n) & mask
	cq.n -= n
	return n
}

// Poll removes and returns up to max entries (all if max <= 0). It
// allocates the returned slice; hot loops should use PollInto.
func (cq *CQ) Poll(max int) []CQE {
	n := cq.n
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]CQE, n)
	cq.PollInto(out)
	return out
}

// Notify parks fn until the queue is non-empty: fn runs once, from the
// wake event of the next push to an empty queue (sim.Signal.Notify). fn
// should check Len before polling, and park again if it is still empty.
func (cq *CQ) Notify(fn func()) { cq.sig.Notify(fn) }

// Len reports queued completions.
func (cq *CQ) Len() int { return cq.n }

// SRQ is a shared receive queue: all of a tenant's RC QPs on a node share
// one RQ posted from that tenant's pool, so the RNIC always lands incoming
// data in the right pool (§3.3).
type SRQ struct {
	Tenant   string
	posted   ring.Deque[mempool.Descriptor]
	consumed uint64 // recv CQEs since last ConsumedReset (drives replenish)
	rnr      uint64
}

// NewSRQ returns an empty shared receive queue for tenant.
func NewSRQ(tenant string) *SRQ { return &SRQ{Tenant: tenant} }

// PostRecv posts a free buffer for incoming sends. The descriptor's buffer
// must already be owned by the posting entity (ownership checks happen at
// the mempool layer in the callers).
func (s *SRQ) PostRecv(d mempool.Descriptor) { s.posted.PushBack(d) }

// PostRecvN posts a batch of free buffers in order — the doorbell-batched
// replenish the DNE core thread uses (§3.5.2).
func (s *SRQ) PostRecvN(ds []mempool.Descriptor) {
	for _, d := range ds {
		s.posted.PushBack(d)
	}
}

// Posted reports currently posted buffers.
func (s *SRQ) Posted() int { return s.posted.Len() }

// Consumed reports recv completions since the last reset — the counter the
// DNE core thread watches to replenish buffers (§3.5.2).
func (s *SRQ) Consumed() uint64 { return s.consumed }

// ConsumedReset zeroes the consumed counter and returns its prior value.
func (s *SRQ) ConsumedReset() uint64 {
	c := s.consumed
	s.consumed = 0
	return c
}

// RNREvents reports receiver-not-ready stalls observed on this SRQ.
func (s *SRQ) RNREvents() uint64 { return s.rnr }

func (s *SRQ) pop() (mempool.Descriptor, bool) {
	if s.posted.Len() == 0 {
		return mempool.Descriptor{}, false
	}
	return s.posted.PopFront(), true
}

// Landed records a one-sided write that arrived in a memory region.
// Receivers discover these only by polling (the write is invisible to the
// remote CPU, which is exactly the "receiver-oblivious" hazard of §2.1).
type Landed struct {
	Buf   mempool.Buffer
	Bytes int
	Desc  mempool.Descriptor
	At    time.Duration
}

// MR is a registered memory region backed by one tenant pool. Landed
// writes queue in a head-indexed slice whose backing array is reused once
// drained, so a poll-paced consumer (PollLandedInto) allocates nothing at
// steady state.
type MR struct {
	id     int
	Pool   *mempool.Pool
	node   fabric.NodeID
	landed []Landed
	head   int
	onLand func()
}

// Node reports the node whose memory this region maps.
func (m *MR) Node() fabric.NodeID { return m.node }

// Pages reports MTT entries consumed (hugepages shrink this 512x vs 4K
// pages, §3.4).
func (m *MR) Pages() int { return m.Pool.Hugepages() }

// land queues one arrived write and fires the empty->non-empty notifier.
func (m *MR) land(l Landed) {
	m.landed = append(m.landed, l)
	if m.onLand != nil && len(m.landed)-m.head == 1 {
		m.onLand()
	}
}

// SetNotify registers fn to run whenever the landed queue goes from empty
// to non-empty — the hook a polling consumer parks its wakeup signal on.
// Coalesced: back-to-back landings into a non-empty queue do not re-fire.
func (m *MR) SetNotify(fn func()) { m.onLand = fn }

// PollLanded drains and returns writes that have landed in this region.
// The scanning CPU cost is paid by the caller (params.OneSidedPollCost).
func (m *MR) PollLanded() []Landed {
	if len(m.landed)-m.head == 0 {
		return nil
	}
	out := append([]Landed(nil), m.landed[m.head:]...)
	m.landed = m.landed[:0]
	m.head = 0
	return out
}

// PollLandedInto drains up to len(buf) landed writes into buf and reports
// how many were copied. The region's backing array is reused once empty, so
// a steady-state poll loop allocates nothing.
func (m *MR) PollLandedInto(buf []Landed) int {
	n := len(m.landed) - m.head
	if n == 0 {
		return 0
	}
	if n > len(buf) {
		n = len(buf)
	}
	copy(buf, m.landed[m.head:m.head+n])
	for i := m.head; i < m.head+n; i++ {
		m.landed[i] = Landed{} // drop buffer/trace references
	}
	m.head += n
	if m.head == len(m.landed) {
		m.landed = m.landed[:0]
		m.head = 0
	}
	return n
}

// LandedCount reports pending landed writes without consuming them.
func (m *MR) LandedCount() int { return len(m.landed) - m.head }

// qpCache models the RNIC's on-chip connection context cache (ICM). Only
// active QPs occupy entries; misses add a per-WR penalty, which is how a
// tenant hoarding many active QPs hurts everyone (§2.1, Harmonic).
type qpCache struct {
	capacity int
	lru      *list.List // front = most recent
	index    map[int]*list.Element
	misses   uint64
	hits     uint64
}

func newQPCache(capacity int) *qpCache {
	return &qpCache{capacity: capacity, lru: list.New(), index: make(map[int]*list.Element)}
}

// touch records use of QP id and reports whether it missed.
func (c *qpCache) touch(id int) bool {
	if el, ok := c.index[id]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return false
	}
	c.misses++
	el := c.lru.PushFront(id)
	c.index[id] = el
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		delete(c.index, back.Value.(int))
		c.lru.Remove(back)
	}
	return true
}

func (c *qpCache) evict(id int) {
	if el, ok := c.index[id]; ok {
		delete(c.index, id)
		c.lru.Remove(el)
	}
}

// RNIC models one RDMA NIC attached to the fabric.
type RNIC struct {
	eng   *sim.Engine
	p     *params.Params
	node  fabric.NodeID
	net   *fabric.Network
	label string // precomputed trace actor ("<node>/rnic")

	// flowFree recycles receiver-side delivery state (see recvFlow).
	flowFree []*recvFlow

	pipeBusy time.Duration
	pipeTime time.Duration // accumulated busy (utilization)
	cache    *qpCache
	words    map[string]uint64 // remote-atomic target words

	nextQP   int
	nextWR   uint64
	nextMR   int
	mttPages int // translation entries pinned by registered MRs

	sends, writes, reads, atomics uint64
	rnrRetries                    uint64
	// qpErrors counts QP transitions into the error state (forced or
	// retry exceeded); ConnPool.Repair skips its scan while it is unchanged.
	qpErrors uint64

	// keeperWake, when bound, learns that a maintenance round has work
	// again (SetKeeperWake).
	keeperWake func()
}

// NewRNIC attaches a new RNIC for node to the network.
func NewRNIC(eng *sim.Engine, p *params.Params, node fabric.NodeID, net *fabric.Network) *RNIC {
	if !net.Has(node) {
		net.AddNode(node)
	}
	return &RNIC{
		eng:   eng,
		p:     p,
		node:  node,
		net:   net,
		label: string(node) + "/rnic",
		cache: newQPCache(p.NICCacheActiveQPs),
		words: make(map[string]uint64),
	}
}

// Node reports the RNIC's node.
func (r *RNIC) Node() fabric.NodeID { return r.node }

// SetKeeperWake binds fn as the RNIC's keeper hook: it runs, in engine
// context, whenever state a maintenance round acts on leaves its idle
// value — a receive consumes the first buffer of an SRQ since its last
// ConsumedReset, a connection pool activates a shadow QP, or a QP enters
// the error state. A keeper that sleeps while it has nothing to do (the DNE
// core thread) wakes on it. One hook per RNIC; nil unbinds.
func (r *RNIC) SetKeeperWake(fn func()) { r.keeperWake = fn }

// wake calls the keeper hook, if one is bound.
func (r *RNIC) wake() {
	if r.keeperWake != nil {
		r.keeperWake()
	}
}

// RegisterMR registers pool as a memory region on this RNIC. The pool's
// pages pin MTT entries; overflowing the translation cache taxes every WR.
func (r *RNIC) RegisterMR(pool *mempool.Pool) *MR {
	r.nextMR++
	r.mttPages += pool.Hugepages()
	return &MR{id: r.nextMR, Pool: pool, node: r.node}
}

// mttPenalty is the expected per-WR translation-miss cost once registered
// pages overflow the MTT cache: the miss probability approaches the
// overflow fraction under uniform buffer access.
func (r *RNIC) mttPenalty() time.Duration {
	if r.mttPages <= r.p.NICMTTEntries {
		return 0
	}
	frac := 1 - float64(r.p.NICMTTEntries)/float64(r.mttPages)
	return time.Duration(frac * float64(r.p.NICMTTMissPenalty))
}

// pipe serializes cost on the RNIC's processing pipeline and returns the
// completion time. Engine context only.
func (r *RNIC) pipe(cost time.Duration) time.Duration {
	now := r.eng.Now()
	start := now
	if r.pipeBusy > start {
		start = r.pipeBusy
	}
	r.pipeBusy = start + cost
	r.pipeTime += cost
	return r.pipeBusy
}

// cachePenalty touches the QP cache and returns the per-WR on-chip context
// costs: QP-state miss penalty plus the MTT translation-miss share.
func (r *RNIC) cachePenalty(qpID int) time.Duration {
	pen := r.mttPenalty()
	if r.cache.touch(qpID) {
		pen += r.p.NICCacheMissPenalty
	}
	return pen
}

// CacheMisses reports lifetime QP cache misses.
func (r *RNIC) CacheMisses() uint64 { return r.cache.misses }

// CacheHits reports lifetime QP cache hits.
func (r *RNIC) CacheHits() uint64 { return r.cache.hits }

// ActiveQPs reports QPs currently resident in the connection context cache —
// the ICM occupancy the telemetry scraper samples.
func (r *RNIC) ActiveQPs() int { return r.cache.lru.Len() }

// PipeBusyTime reports accumulated RNIC pipeline busy time.
func (r *RNIC) PipeBusyTime() time.Duration { return r.pipeTime }

// Stats reports per-verb counters.
func (r *RNIC) Stats() (sends, writes, reads, atomics, rnrRetries uint64) {
	return r.sends, r.writes, r.reads, r.atomics, r.rnrRetries
}

// dmaCost is the PCIe DMA time for n payload bytes.
func (r *RNIC) dmaCost(n int) time.Duration {
	return r.p.RNICDMAPerOp + params.Bytes(r.p.RNICDMAPerByte, n)
}

// Word returns the current value of a remote-atomic word.
func (r *RNIC) Word(key string) uint64 { return r.words[key] }

// SetWord initializes a remote-atomic word (e.g. a distributed lock).
func (r *RNIC) SetWord(key string, v uint64) { r.words[key] = v }

func (r *RNIC) wrID() uint64 {
	r.nextWR++
	return r.nextWR
}

func (r *RNIC) qpID() int {
	r.nextQP++
	return r.nextQP
}
