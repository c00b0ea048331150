package rdma

import (
	"time"

	"nadino/internal/mempool"
	"nadino/internal/ring"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// QP is one end of a reliable-connected queue pair. Each tenant's QPs on a
// node share one SRQ (receive side) and the node shares one CQ (§3.3).
type QP struct {
	id     int
	rnic   *RNIC
	peer   *QP
	Tenant string
	srq    *SRQ // receive side for two-sided ops arriving at this end
	cq     *CQ  // completions for WRs posted at this end

	active      bool
	errored     bool
	repairing   bool
	outstanding int
	sendsPosted uint64
	bytesSent   uint64

	// pending tracks unacked WRs for the RC retransmission timer: an
	// open-addressed index into a pooled slab of wrState slots, so the
	// per-send fast path allocates nothing at steady state.
	pending wrTable
	wrFree  []*wrState
	// seen dedupes retransmitted deliveries at the receiver (the PSN
	// check real RC performs): a duplicate is re-acked but consumes no
	// receive buffer. Entries are swept after dedupWindow (see sweepSeen).
	// The set is open-addressed; seenLog is a ring whose head the sweeper
	// advances in place, so sustained load reuses the same backing arrays
	// instead of growing a retained slice prefix forever.
	seen        u64Set
	seenLog     ring.Deque[seenEntry]
	sweepFn     func() // bound once: the seenLog sweeper
	sweepArmed  bool
	retransmits uint64
}

// seenEntry records when a wrID entered the receiver's dedup set.
type seenEntry struct {
	wr uint64
	at time.Duration
}

// dedupWindow bounds how long dedup state is retained. It must exceed the
// maximum plausible delivery skew between an original and its last
// retransmitted copy (retries span ~4ms; pipe backlogs add the rest). The
// same bound fences wrState slot reuse: a slot is recycled only after the
// window, by which time every copy of its WR has left the fabric.
const dedupWindow = time.Second

// wrState is one slab slot: the transport-level state of an in-flight WR.
// Its event callbacks are bound once when the slot is created, so posting,
// retransmitting and completing a send allocate nothing once the pool is
// warm. A slot is freed either immediately on completion (never
// retransmitted: exactly one copy existed and it has fully completed, so no
// event can still reference the slot) or after dedupWindow (retransmitted:
// the tombstone absorbs late duplicate acks first).
type wrState struct {
	qp       *QP
	id       uint64
	d        mempool.Descriptor
	done     bool
	attempts int
	timer    sim.Event

	// One-sided write mode: the WR DMAs into remote instead of consuming a
	// peer SRQ entry, and its receive side is the wLand/wDone/wAck chain.
	isWrite bool
	remote  RemoteBuf

	xmitFn    func() // hand the serialized WR to the fabric
	deliverFn func() // receive-side entry on the peer RNIC (two-sided)
	checkFn   func() // retransmit-timer body
	expireFn  func() // tombstone expiry: drop the index entry, free the slot
	wLandFn   func() // write arrival on the peer RNIC (one-sided)
	wDoneFn   func() // write landed: dedup, MR append, start the ack
	wAckFn    func() // write ack back at the sender
}

// Connect establishes an RC connection between two RNICs and returns both
// ends. The caller models setup latency (params.QPSetupTime) — see
// ConnPool.Establish for the pooled version.
func Connect(a, b *RNIC, tenant string, srqA, srqB *SRQ, cqA, cqB *CQ) (*QP, *QP) {
	qa := &QP{id: a.qpID(), rnic: a, Tenant: tenant, srq: srqA, cq: cqA, active: true}
	qb := &QP{id: b.qpID(), rnic: b, Tenant: tenant, srq: srqB, cq: cqB, active: true}
	qa.sweepFn = qa.sweepSeen
	qb.sweepFn = qb.sweepSeen
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// Errored reports whether the QP is in the error state (retry exceeded).
func (qp *QP) Errored() bool { return qp.errored }

// Retransmits reports transport-level retransmissions on this QP.
func (qp *QP) Retransmits() uint64 { return qp.retransmits }

// ForceError drives the QP into the error state immediately, as an RNIC
// firmware fault or peer reboot would: the cache slot is evicted and new
// posts flush with StatusQPError until Reset (ConnPool.Repair recovers it).
// Injection hook for internal/chaos. In-flight sends keep retransmitting
// until their own retry budgets expire.
func (qp *QP) ForceError() {
	if qp.errored {
		return
	}
	qp.errored = true
	qp.rnic.qpErrors++
	qp.rnic.cache.evict(qp.id)
}

// Reset returns an errored QP to the ready state after the out-of-band
// re-handshake (the caller models the setup delay, see ConnPool.Repair).
func (qp *QP) Reset() {
	qp.errored = false
	qp.outstanding = 0
}

// ID reports the QP number.
func (qp *QP) ID() int { return qp.id }

// Active reports whether the QP currently holds RNIC resources.
func (qp *QP) Active() bool { return qp.active }

// Outstanding reports WRs posted but not yet completed — the congestion
// signal the DNE uses to pick the least-congested RC connection (§3.2).
func (qp *QP) Outstanding() int { return qp.outstanding }

// RNIC returns the local RNIC.
func (qp *QP) RNIC() *RNIC { return qp.rnic }

// allocWR takes a slab slot for a newly posted WR and indexes it.
func (qp *QP) allocWR(id uint64, d mempool.Descriptor) *wrState {
	var st *wrState
	if n := len(qp.wrFree); n > 0 {
		st = qp.wrFree[n-1]
		qp.wrFree = qp.wrFree[:n-1]
	} else {
		st = &wrState{qp: qp}
		st.xmitFn = st.xmit
		st.deliverFn = st.deliver
		st.checkFn = st.check
		st.expireFn = st.expire
		st.wLandFn = st.wLand
		st.wDoneFn = st.wDone
		st.wAckFn = st.wAck
	}
	st.id = id
	st.d = d
	st.done = false
	st.attempts = 0
	st.isWrite = false
	st.timer = sim.Event{}
	qp.pending.put(id, st)
	return st
}

// freeWR recycles a slab slot. The caller must have removed it from the
// pending index first.
func (qp *QP) freeWR(st *wrState) {
	st.d = mempool.Descriptor{} // drop buffer/trace references
	st.remote = RemoteBuf{}
	qp.wrFree = append(qp.wrFree, st)
}

func (qp *QP) complete(e CQE) {
	if st := qp.pending.get(e.WRID); st != nil {
		if st.done {
			return // duplicate ack (a retransmitted copy also delivered)
		}
		st.done = true
		st.timer.Cancel()
		if st.attempts == 0 {
			// Never retransmitted: exactly one copy exists, so no
			// duplicate ack can arrive — reclaim immediately. This keeps
			// the index tiny on lossless paths.
			qp.pending.del(e.WRID)
			qp.freeWR(st)
		} else {
			// Tombstone against late duplicate acks, swept after the
			// dedup window.
			qp.rnic.eng.After(dedupWindow, st.expireFn)
		}
	}
	qp.outstanding--
	qp.cq.push(e)
}

// PostSend posts a two-sided send of d.Len bytes described by d. The
// payload lands in a buffer the receiver posted to its SRQ; the receive
// CQE carries that buffer with d's routing metadata. Engine context; the
// caller pays params.VerbsPostCost on its own core.
func (qp *QP) PostSend(d mempool.Descriptor) uint64 {
	r := qp.rnic
	id := r.wrID()
	qp.outstanding++
	if qp.errored {
		// Error-state QPs flush new WRs immediately.
		r.eng.Immediate(func() {
			qp.complete(CQE{WRID: id, Op: OpSend, Status: StatusQPError, Bytes: int(d.Len), QP: qp, Desc: d})
		})
		return id
	}
	qp.sendsPosted++
	qp.bytesSent += uint64(d.Len)
	r.sends++

	// The transfer span runs from the post to the receive-side CQE (closed
	// in CQ.push); a send abandoned by the transport leaves it open, which
	// reports and exports ignore.
	d.Trace.BeginStage(trace.StageRDMA, r.label)
	st := qp.allocWR(id, d)
	st.timer = r.eng.After(r.p.RetransmitTimeout, st.checkFn)
	st.attempt()
	return id
}

// attempt transmits one copy of the WR: RNIC pipeline, then the fabric.
func (st *wrState) attempt() {
	qp := st.qp
	r := qp.rnic
	cost := r.p.RNICPerWR + r.cachePenalty(qp.id) + r.dmaCost(int(st.d.Len))
	done := r.pipe(cost)
	r.eng.At(done, st.xmitFn)
}

func (st *wrState) xmit() {
	qp := st.qp
	r := qp.rnic
	if st.isWrite {
		r.net.SendTraced(r.node, qp.peer.rnic.node, int(st.d.Len)+wireHeaderBytes, st.d.Trace, st.wLandFn)
		return
	}
	r.net.SendTraced(r.node, qp.peer.rnic.node, int(st.d.Len)+wireHeaderBytes, st.d.Trace, st.deliverFn)
}

func (st *wrState) deliver() {
	qp := st.qp
	qp.peer.rnic.deliverSend(qp, st.id, st.d, 0)
}

// check is the RC ack timer body: unacked WRs are retransmitted, and after
// TransportRetries the QP errors out.
func (st *wrState) check() {
	qp := st.qp
	r := qp.rnic
	if st.done {
		return
	}
	st.attempts++
	if st.attempts > r.p.TransportRetries {
		if !qp.errored {
			qp.errored = true
			r.qpErrors++
		}
		r.cache.evict(qp.id)
		st.done = true // tombstone: late copies must not double-complete
		r.eng.After(dedupWindow, st.expireFn)
		qp.outstanding--
		op := OpSend
		if st.isWrite {
			op = OpWrite
		}
		qp.cq.push(CQE{WRID: st.id, Op: op, Status: StatusRetryExceeded, Bytes: int(st.d.Len), QP: qp, Desc: st.d})
		return
	}
	qp.retransmits++
	st.attempt()
	st.timer = r.eng.After(r.p.RetransmitTimeout, st.checkFn)
}

// expire retires a tombstoned slot after the dedup window.
func (st *wrState) expire() {
	st.qp.pending.del(st.id)
	st.qp.freeWR(st)
}

// recvFlow is the receiver-side state of one delivered copy of a send,
// pooled per RNIC with its stage callbacks bound once. It carries its own
// copy of the WR metadata, so receiver-side retry chains never reference
// the sender's (reusable) wrState slot.
type recvFlow struct {
	r       *RNIC // receiving RNIC
	src     *QP
	dst     *QP
	wrID    uint64
	d       mempool.Descriptor
	attempt int
	buf     mempool.Descriptor

	matchFn func() // after the match-pipe stage: SRQ pop or RNR
	dmaFn   func() // after payload DMA: recv CQE + ack
	retryFn func() // RNR backoff re-entry
	ackFn   func() // OK ack to the sender; releases the flow
	rnrFn   func() // RNRExceeded to the sender; releases the flow
	dupFn   func() // duplicate re-ack to the sender; releases the flow
}

func (r *RNIC) allocFlow() *recvFlow {
	var f *recvFlow
	if n := len(r.flowFree); n > 0 {
		f = r.flowFree[n-1]
		r.flowFree = r.flowFree[:n-1]
	} else {
		f = &recvFlow{r: r}
		f.matchFn = f.match
		f.dmaFn = f.dma
		f.retryFn = f.retry
		f.ackFn = f.ack
		f.rnrFn = f.rnrExceeded
		f.dupFn = f.dupAck
	}
	return f
}

func (r *RNIC) releaseFlow(f *recvFlow) {
	f.src = nil
	f.dst = nil
	f.d = mempool.Descriptor{}
	f.buf = mempool.Descriptor{}
	r.flowFree = append(r.flowFree, f)
}

// deliverSend runs on the receiving RNIC when a two-sided send arrives.
func (r *RNIC) deliverSend(src *QP, wrID uint64, d mempool.Descriptor, attempt int) {
	f := r.allocFlow()
	f.src = src
	f.dst = src.peer
	f.wrID = wrID
	f.d = d
	f.attempt = attempt
	f.start()
}

func (f *recvFlow) start() {
	r := f.r
	p := r.p
	dst := f.dst
	if dst.seen.has(f.wrID) {
		// Duplicate of a retransmitted WR (PSN already consumed): drop it
		// and re-ack so the sender stops retransmitting.
		r.eng.After(p.FabricPropagation, f.dupFn)
		return
	}
	cost := p.RNICPerWR + r.cachePenalty(dst.id) + p.RecvMatchCost
	at := r.pipe(cost)
	r.eng.At(at, f.matchFn)
}

func (f *recvFlow) match() {
	r := f.r
	p := r.p
	dst := f.dst
	buf, ok := dst.srq.pop()
	if !ok {
		// Receiver not ready: RC retries with backoff, then errors.
		dst.srq.rnr++
		r.rnrRetries++
		f.d.Trace.Event(trace.StageRNR, r.label)
		if f.attempt+1 > maxRNRRetries {
			f.src.rnic.eng.After(p.FabricPropagation, f.rnrFn)
			return
		}
		r.eng.After(p.RNRRetryDelay, f.retryFn)
		return
	}
	dst.markSeen(f.wrID)
	f.buf = buf
	done := r.pipe(r.dmaCost(int(f.d.Len)))
	r.eng.At(done, f.dmaFn)
}

func (f *recvFlow) retry() {
	f.attempt++
	f.start()
}

func (f *recvFlow) dma() {
	r := f.r
	dst := f.dst
	recv := f.buf
	recv.Len = f.d.Len
	recv.Seq = f.d.Seq
	recv.Trace = f.d.Trace
	recv.Msg = f.d.Msg
	dst.srq.consumed++
	dst.cq.push(CQE{WRID: r.wrID(), Op: OpRecv, Status: StatusOK, Bytes: int(f.d.Len), QP: dst, Desc: recv})
	// RC ack completes the sender after one propagation delay.
	r.eng.After(r.p.FabricPropagation, f.ackFn)
}

func (f *recvFlow) ack() {
	src := f.src
	src.complete(CQE{WRID: f.wrID, Op: OpSend, Status: StatusOK, Bytes: int(f.d.Len), QP: src, Desc: f.d})
	f.r.releaseFlow(f)
}

func (f *recvFlow) rnrExceeded() {
	src := f.src
	src.complete(CQE{WRID: f.wrID, Op: OpSend, Status: StatusRNRExceeded, Bytes: int(f.d.Len), QP: src, Desc: f.d})
	f.r.releaseFlow(f)
}

func (f *recvFlow) dupAck() {
	src := f.src
	src.complete(CQE{WRID: f.wrID, Op: OpSend, Status: StatusOK, Bytes: int(f.d.Len), QP: src, Desc: f.d})
	f.r.releaseFlow(f)
}

// RemoteBuf names a destination buffer for one-sided operations.
type RemoteBuf struct {
	MR  *MR
	Buf mempool.Buffer
}

// PostWrite posts a one-sided RDMA write of d.Len bytes into remote. The
// remote CPU is not involved and gets no completion — receivers poll the
// region (MR.PollLanded / MR.PollLandedInto) or arm MR.SetNotify. Engine
// context; the caller pays params.VerbsPostCost on its own core.
//
// Like PostSend, the WR rides the pooled wrState slab (nothing allocates at
// steady state) and the full RC transport applies: retransmission with
// receiver-side dedup (a retransmitted write lands exactly once),
// StatusRetryExceeded after the retry budget, and an immediate
// StatusQPError flush when the QP is already errored.
func (qp *QP) PostWrite(d mempool.Descriptor, remote RemoteBuf) uint64 {
	r := qp.rnic
	id := r.wrID()
	qp.outstanding++
	if qp.errored {
		r.eng.Immediate(func() {
			qp.complete(CQE{WRID: id, Op: OpWrite, Status: StatusQPError, Bytes: int(d.Len), QP: qp, Desc: d})
		})
		return id
	}
	qp.bytesSent += uint64(d.Len)
	r.writes++

	// The transfer span runs from the post to the sender-side completion
	// (closed in CQ.push when the OpWrite CQE lands).
	d.Trace.BeginStage(trace.StageRDMA, r.label)
	st := qp.allocWR(id, d)
	st.isWrite = true
	st.remote = remote
	st.timer = r.eng.After(r.p.RetransmitTimeout, st.checkFn)
	st.attempt()
	return id
}

// wLand runs on the receiving RNIC when one copy of a one-sided write
// arrives: the write consumes a receiver pipeline slot and DMAs straight
// into the target buffer, no CPU involved.
func (st *wrState) wLand() {
	qp := st.qp
	rr := qp.peer.rnic
	at := rr.pipe(rr.p.RNICPerWR + rr.cachePenalty(qp.peer.id) + rr.dmaCost(int(st.d.Len)))
	rr.eng.At(at, st.wDoneFn)
}

// wDone lands the payload — once; the receiver's PSN check discards
// retransmitted copies — then starts the RC ack back to the sender.
func (st *wrState) wDone() {
	qp := st.qp
	peer := qp.peer
	rr := peer.rnic
	if !peer.seen.has(st.id) {
		peer.markSeen(st.id)
		st.remote.MR.land(Landed{Buf: st.remote.Buf, Bytes: int(st.d.Len), Desc: st.d, At: rr.eng.Now()})
	}
	rr.eng.After(rr.p.FabricPropagation, st.wAckFn)
}

func (st *wrState) wAck() {
	qp := st.qp
	qp.complete(CQE{WRID: st.id, Op: OpWrite, Status: StatusOK, Bytes: int(st.d.Len), QP: qp, Desc: st.d})
}

// PostRead posts a one-sided RDMA read of n bytes from remote into a local
// buffer. Completion delivers after the data returns.
func (qp *QP) PostRead(n int, remote RemoteBuf) uint64 {
	r := qp.rnic
	p := r.p
	id := r.wrID()
	qp.outstanding++
	r.reads++

	cost := p.RNICPerWR + r.cachePenalty(qp.id)
	done := r.pipe(cost)
	r.eng.At(done, func() {
		// Request packet out...
		r.net.Send(r.node, qp.peer.rnic.node, wireHeaderBytes, func() {
			rr := qp.peer.rnic
			at := rr.pipe(p.RNICPerWR + rr.cachePenalty(qp.peer.id) + rr.dmaCost(n))
			rr.eng.At(at, func() {
				// ...data packet back.
				rr.net.Send(rr.node, r.node, n+wireHeaderBytes, func() {
					fin := r.pipe(r.dmaCost(n))
					r.eng.At(fin, func() {
						qp.complete(CQE{WRID: id, Op: OpRead, Status: StatusOK, Bytes: n, QP: qp})
					})
				})
			})
		})
	})
	return id
}

// CASResult reports the outcome of a remote compare-and-swap.
type CASResult struct {
	WRID uint64
	Old  uint64
	// Swapped reports whether the exchange happened (Old == compare).
	Swapped bool
}

// PostCAS posts a one-sided atomic compare-and-swap on a named word at the
// peer's RNIC. fn is invoked (engine context) when the result returns.
// This is the primitive under the OWDL distributed-lock baseline (§4.1.2).
func (qp *QP) PostCAS(key string, compare, swap uint64, fn func(CASResult)) uint64 {
	r := qp.rnic
	p := r.p
	id := r.wrID()
	qp.outstanding++
	r.atomics++

	cost := p.RNICPerWR + r.cachePenalty(qp.id)
	done := r.pipe(cost)
	r.eng.At(done, func() {
		half := p.CASLatency / 2
		r.eng.After(half, func() {
			rr := qp.peer.rnic
			old := rr.words[key]
			swapped := old == compare
			if swapped {
				rr.words[key] = swap
			}
			rr.eng.After(half, func() {
				qp.complete(CQE{WRID: id, Op: OpCAS, Status: StatusOK, QP: qp})
				fn(CASResult{WRID: id, Old: old, Swapped: swapped})
			})
		})
	})
	return id
}

// markSeen records a processed wrID for duplicate detection and arms the
// batched sweeper that retires entries after the dedup window — one timer
// per QP, not one per delivery.
func (qp *QP) markSeen(wrID uint64) {
	qp.seen.put(wrID)
	qp.seenLog.PushBack(seenEntry{wr: wrID, at: qp.rnic.eng.Now()})
	if !qp.sweepArmed {
		qp.sweepArmed = true
		qp.rnic.eng.After(dedupWindow, qp.sweepFn)
	}
}

// sweepSeen retires dedup entries older than the window and re-arms while
// any remain. The ring's head advances in place, so the log's footprint is
// bounded by the peak one-window population, not by lifetime deliveries.
func (qp *QP) sweepSeen() {
	now := qp.rnic.eng.Now()
	for qp.seenLog.Len() > 0 {
		e := qp.seenLog.Front()
		if now-e.at < dedupWindow {
			break
		}
		qp.seen.del(e.wr)
		qp.seenLog.PopFront()
	}
	if qp.seenLog.Len() > 0 {
		qp.rnic.eng.After(dedupWindow-(now-qp.seenLog.Front().at), qp.sweepFn)
	} else {
		qp.sweepArmed = false
	}
}

// deactivate releases RNIC resources ("shadow" QP, §3.3): the QP keeps its
// software state but vacates the cache and cannot post until reactivated.
func (qp *QP) deactivate() {
	qp.active = false
	qp.rnic.cache.evict(qp.id)
}
