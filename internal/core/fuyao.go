package core

import (
	"fmt"
	"time"

	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// fuyaoEngine reimplements FUYAO's data plane (§4.3 baseline): a CPU-hosted
// per-node network engine that ships inter-node messages with one-sided
// RDMA writes into a dedicated RDMA-only pool on the receiver, where a
// polling core detects arrivals and copies payloads into the node's shared
// memory pool (Fig. 3 (2): separate pools, receiver-side copy). Slot
// credits flow back to senders once the receiver copies out.
type fuyaoEngine struct {
	c     *Cluster
	node  *Node
	owner mempool.Owner

	core     *sim.Processor // engine core (TX + completions)
	pollCore *sim.Processor // receiver polling core (burns a core, §4.3.1)

	inbox *ipc.Chan
	work  *sim.Signal

	rdmaPool *mempool.Pool // RDMA-only landing pool
	mr       *rdma.MR
	cq       *rdma.CQ

	conns  map[string]*rdma.ConnPool
	rings  map[string][]rdma.RemoteBuf // free remote slots per destination node
	cqeBuf []rdma.CQE                  // reusable completion drain buffer

	// deferred holds messages waiting for slot credits.
	deferred []mempool.Descriptor

	txCount, rxCount uint64
	creditStalls     uint64

	// The engine loop's position: a pass retries deferred messages, ingests
	// up to a batch from local functions, then drains write completions.
	stage  fyStage
	did    bool                 // the pass found work
	retry  []mempool.Descriptor // deferred messages this pass retries
	next   int                  // next retry, or inbox messages taken this pass
	txd    mempool.Descriptor   // the message in service
	txNode string               // its destination node
	txSlot rdma.RemoteBuf       // the landing slot it takes

	// The poller's position: the landed writes of its last scan, the next
	// to copy, and the copy being handed to its function.
	landed []rdma.Landed
	li     int
	pd     mempool.Descriptor
	pbuf   bufRetry

	// Continuations, bound once at start.
	loopFn, ingestedFn, chargedFn, postedFn           func()
	scanFn, polledFn, copiedFn, polledBufFn, handedFn func()
}

// fyStage is where the FUYAO engine loop is within a pass.
type fyStage int

const (
	fyStart fyStage = iota
	fyRetry
	fyInbox
	fyCQ
)

// fuyaoRingSlots is the per-destination one-sided landing ring size.
const fuyaoRingSlots = 1024

func newFuyaoEngine(c *Cluster, n *Node) *fuyaoEngine {
	e := &fuyaoEngine{
		c:        c,
		node:     n,
		owner:    mempool.Owner("fuyao@" + string(n.name)),
		core:     sim.NewProcessor(c.Eng, string(n.name)+"/fuyao", c.P.HostCoreSpeed),
		pollCore: sim.NewProcessor(c.Eng, string(n.name)+"/fuyao-poll", c.P.HostCoreSpeed),
		work:     sim.NewSignal(c.Eng),
		rdmaPool: mempool.NewPool(c.cfg.Tenant+"-rdma", c.cfg.BufSize, 4*fuyaoRingSlots, c.P.HugepageSize),
		cq:       rdma.NewCQ(c.Eng),
		conns:    make(map[string]*rdma.ConnPool),
		rings:    make(map[string][]rdma.RemoteBuf),
	}
	e.inbox = ipc.NewSKMsg(c.Eng, c.P, e.work.Pulse)
	e.mr = n.dpu.RNIC().RegisterMR(e.rdmaPool)
	e.cq.SetNotify(func() { e.work.Pulse() })
	return e
}

// submit hands a descriptor from a local function to the engine. The buffer
// must already be owned by the engine.
func (e *fuyaoEngine) submit(d mempool.Descriptor) {
	e.inbox.Send(d)
}

// setupFuyao establishes QPs between all node pairs, carves landing rings,
// and starts the engine and poller loops.
func (c *Cluster) setupFuyao() {
	tenant := c.cfg.Tenant
	var jobs []func(done func())
	for i := 0; i < len(c.nodeSeq); i++ {
		for j := i + 1; j < len(c.nodeSeq); j++ {
			a, b := c.nodeSeq[i], c.nodeSeq[j]
			jobs = append(jobs, func(done func()) {
				rdma.EstablishPair(c.Eng, c.P, tenant,
					a.dpu.RNIC(), b.dpu.RNIC(), 4,
					nil, nil, a.fuyao.cq, b.fuyao.cq, func(cpA, cpB *rdma.ConnPool) {
						a.fuyao.conns[string(b.name)] = cpA
						b.fuyao.conns[string(a.name)] = cpB
						a.fuyao.rings[string(b.name)] = carveRing(b.fuyao)
						b.fuyao.rings[string(a.name)] = carveRing(a.fuyao)
						done()
					})
			})
		}
	}
	c.join(jobs, func() {
		for _, n := range c.nodeSeq {
			n.fuyao.start()
		}
		c.finishSetup()
	})
}

// carveRing allocates landing slots in dst's RDMA-only pool.
func carveRing(dst *fuyaoEngine) []rdma.RemoteBuf {
	slots := make([]rdma.RemoteBuf, 0, fuyaoRingSlots)
	for i := 0; i < fuyaoRingSlots; i++ {
		b, err := dst.rdmaPool.Get("fuyao-ring")
		if err != nil {
			panic(fmt.Sprintf("core: fuyao ring carve: %v", err))
		}
		slots = append(slots, rdma.RemoteBuf{MR: dst.mr, Buf: b})
	}
	return slots
}

// start runs the engine loop and the receiver poller as engine callbacks,
// each from one same-instant event. Every later step continues from the
// event its last block point scheduled.
func (e *fuyaoEngine) start() {
	e.cqeBuf = make([]rdma.CQE, fuyaoBatch)
	e.loopFn, e.ingestedFn, e.chargedFn, e.postedFn = e.loop, e.ingested, e.charged, e.posted
	e.pbuf.eng, e.pbuf.retryFn = e.c.Eng, e.pbuf.retry
	e.scanFn, e.polledFn, e.copiedFn = e.scan, e.polled, e.copied
	e.polledBufFn, e.handedFn = e.polledBuf, e.handed
	e.c.Eng.Immediate(e.loopFn)
	e.c.Eng.Immediate(e.scanFn)
}

// fuyaoBatch caps the messages one engine pass ingests, and the completions
// it drains per poll.
const fuyaoBatch = 16

// loop is the FUYAO engine's event loop: ingest SK_MSG descriptors from
// local functions (paying interrupt costs — it is CPU-hosted), issue
// one-sided writes when slot credits allow, and recycle source buffers on
// write completions. A pass that finds no work parks on the work signal.
func (e *fuyaoEngine) loop() {
	for {
		switch e.stage {
		case fyStart:
			// Retry deferred messages first (credits may have returned).
			e.did = false
			e.stage, e.next = fyInbox, 0
			if len(e.deferred) > 0 {
				e.retry, e.deferred = e.deferred, nil
				e.stage = fyRetry
			}
		case fyRetry:
			if e.next == len(e.retry) {
				e.retry = nil
				e.stage, e.next = fyInbox, 0
				continue
			}
			d := e.retry[e.next]
			e.next++
			switch e.tx(d, false) {
			case txWaiting:
				return
			case txSent:
				e.did = true
			}
			// A stalled message is back on deferred; the rest of the
			// batch goes on, to destinations that may have credits.
		case fyInbox:
			if e.next == fuyaoBatch {
				e.stage = fyCQ
				continue
			}
			backlog := e.inbox.Pending()
			d, ok := e.inbox.TryRecv()
			if !ok {
				e.stage = fyCQ
				continue
			}
			e.next++
			e.txd = d
			e.core.Run(ipc.InterruptCost(e.c.P, backlog), e.ingestedFn)
			return
		case fyCQ:
			for i, m := 0, e.cq.PollInto(e.cqeBuf); i < m; i++ {
				cqe := &e.cqeBuf[i]
				if cqe.Op == rdma.OpWrite && cqe.Desc.Tenant != "" {
					// Source buffer can be recycled now.
					if err := e.node.pool(cqe.Desc.Tenant).Put(cqe.Desc.Buf, e.owner); err != nil {
						panic(fmt.Sprintf("core: fuyao source recycle: %v", err))
					}
				}
				e.did = true
			}
			e.stage = fyStart
			if !e.did {
				e.work.Notify(e.loopFn)
				return
			}
		}
	}
}

// ingested transmits a message once its interrupt cost is paid.
func (e *fuyaoEngine) ingested() {
	switch e.tx(e.txd, true) {
	case txWaiting:
		return
	case txSent:
		e.did = true
	}
	e.loop()
}

// txResult is how a one-sided write attempt went.
type txResult int

const (
	txSent    txResult = iota // done at once (an unroutable message is dropped)
	txStalled                 // out of slot credits: deferred
	txWaiting                 // paying its costs; posted resumes the loop
)

// tx issues one one-sided write, charging the engine's TX work first when
// charge is set.
func (e *fuyaoEngine) tx(d mempool.Descriptor, charge bool) txResult {
	p := e.c.P
	dst := e.c.fns[d.Msg.Dst]
	if dst == nil {
		return txSent // drop unroutable
	}
	node := string(dst.node.name)
	ring := e.rings[node]
	if len(ring) == 0 {
		e.creditStalls++
		e.deferred = append(e.deferred, d)
		return txStalled
	}
	e.txd, e.txNode, e.txSlot = d, node, ring[len(ring)-1]
	e.rings[node] = ring[:len(ring)-1]
	if charge {
		e.core.Run(p.DNETxCost+p.FuyaoEngineExtra, e.chargedFn)
	} else {
		e.core.Run(p.VerbsPostCost, e.postedFn)
	}
	return txWaiting
}

func (e *fuyaoEngine) charged() { e.core.Run(e.c.P.VerbsPostCost, e.postedFn) }

// posted posts the write once the verbs cost is paid.
func (e *fuyaoEngine) posted() {
	qp := e.conns[e.txNode].Pick()
	qp.PostWrite(e.txd, e.txSlot)
	e.txCount++
	e.txd, e.txSlot = mempool.Descriptor{}, rdma.RemoteBuf{}
	e.did = true
	e.loop()
}

// scan is the receiver poller: scan the RDMA-only region for landed writes
// (FaRM-style), copy each payload into the node's shared-memory pool, hand
// the descriptor to the destination function over SK_MSG, and return the
// slot credit to the sender. An empty scan sleeps a poll interval.
func (e *fuyaoEngine) scan() { e.pollCore.Run(e.c.P.OneSidedPollCost, e.polledFn) }

func (e *fuyaoEngine) polled() {
	landed := e.mr.PollLanded()
	if len(landed) == 0 {
		e.c.Eng.After(e.c.P.FuyaoPollInterval, e.scanFn)
		return
	}
	e.landed, e.li = landed, 0
	e.copyNext()
}

// copyNext starts the receiver-side copy of the next landed write — the
// copy that two-sided RDMA avoids — or scans again after the last.
func (e *fuyaoEngine) copyNext() {
	if e.li == len(e.landed) {
		e.landed = nil
		e.scan()
		return
	}
	p := e.c.P
	e.pollCore.Run(p.MemcpyBase+params.Bytes(p.MemcpyPerByteCold, e.landed[e.li].Bytes), e.copiedFn)
}

func (e *fuyaoEngine) copied() {
	l := &e.landed[e.li]
	dstFn := e.c.fns[l.Desc.Msg.Dst]
	if dstFn == nil {
		e.returnCredit(l)
		e.li++
		e.copyNext()
		return
	}
	e.pbuf.then = e.polledBufFn
	if e.pbuf.get(e.node.pool(l.Desc.Tenant), dstFn.owner) {
		e.polledBuf()
	}
}

// polledBuf hands the copy to its function. A copy the pool cannot take
// loses the message, and with it the call it carries.
func (e *fuyaoEngine) polledBuf() {
	l := &e.landed[e.li]
	if e.pbuf.err != nil {
		e.returnCredit(l)
		e.c.dropped(l.Desc.Msg.Ctx)
		e.li++
		e.copyNext()
		return
	}
	e.pd = l.Desc
	e.pd.Buf = e.pbuf.buf
	e.pollCore.Run(e.c.P.SKMsgSendCost, e.handedFn)
}

func (e *fuyaoEngine) handed() {
	l := &e.landed[e.li]
	e.c.fns[l.Desc.Msg.Dst].localIn.Send(e.pd)
	e.pd = mempool.Descriptor{}
	e.rxCount++
	e.returnCredit(l)
	e.li++
	e.copyNext()
}

// returnCredit ships the landed slot back to the sender's free ring.
func (e *fuyaoEngine) returnCredit(l *rdma.Landed) {
	srcFn := e.c.fns[l.Desc.Msg.Src]
	if srcFn == nil {
		return
	}
	sender := srcFn.node.fuyao
	slot := rdma.RemoteBuf{MR: e.mr, Buf: l.Buf}
	here := string(e.node.name)
	e.c.Eng.After(3*time.Microsecond, func() {
		sender.rings[here] = append(sender.rings[here], slot)
		sender.work.Pulse()
	})
}
