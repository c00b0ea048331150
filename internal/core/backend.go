package core

import (
	"fmt"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/mempool"
	"nadino/internal/rdma"
	"nadino/internal/trace"
)

// ingressResponse builds a gateway response.
func ingressResponse(bytes int, stamp time.Duration) ingress.Response {
	return ingress.Response{Bytes: bytes, Stamp: stamp}
}

// rqOwner is the owner tag for buffers posted to the ingress backend's SRQ.
const rqOwner mempool.Owner = "igw-rq"

// ingressRing is how many receive buffers the ingress backend keeps posted
// per tenant.
const ingressRing = 1024

// ingressRepairEvery is the period of the ingress backend's QP repair pass.
const ingressRepairEvery = time.Millisecond

// beTenant is the ingress backend's per-tenant slice: its own pool on the
// ingress node, a shared receive queue, and RC pools toward each worker.
type beTenant struct {
	name  string
	pool  *mempool.Pool
	cache *mempool.Cache // per-consumer cache for the ingress Get/Put churn
	srq   *rdma.SRQ
	conns map[string]*rdma.ConnPool
	rqBuf []mempool.Buffer // batch replenish scratch
	rqDsc []mempool.Descriptor
}

// rdmaBackend is NADINO's cluster side of the ingress gateway: the ingress
// node's RNIC posts two-sided sends straight into worker DNEs (the payload
// enters the tenant pool on the worker — zero copy from there on), and
// worker responses land in the ingress node's per-tenant SRQs.
type rdmaBackend struct {
	c         *Cluster
	rnic      *rdma.RNIC
	cq        *rdma.CQ
	cqeBuf    []rdma.CQE // reusable poll buffer
	pollFn    func()     // poll, bound once at start
	tenants   map[string]*beTenant
	tenantSeq []*beTenant // insertion order: map walks are nondeterministic

	drops      uint64
	sendErrors uint64
}

func newRDMABackend(c *Cluster) *rdmaBackend {
	return &rdmaBackend{
		c:       c,
		rnic:    rdma.NewRNIC(c.Eng, c.P, ingressNodeName, c.net),
		cq:      rdma.NewCQ(c.Eng),
		tenants: make(map[string]*beTenant),
	}
}

// tenant returns (creating on first use) the backend slice for a tenant.
func (b *rdmaBackend) tenant(name string) *beTenant {
	t, ok := b.tenants[name]
	if !ok {
		t = &beTenant{
			name:  name,
			pool:  mempool.NewPool(name, b.c.cfg.BufSize, b.c.cfg.PoolBuffers, b.c.P.HugepageSize),
			srq:   rdma.NewSRQ(name),
			conns: make(map[string]*rdma.ConnPool),
			rqBuf: make([]mempool.Buffer, 64),
			rqDsc: make([]mempool.Descriptor, 64),
		}
		t.cache = mempool.NewCache(t.pool, ingressOwner, 64)
		b.tenants[name] = t
		b.tenantSeq = append(b.tenantSeq, t)
	}
	return t
}

// start posts the initial receive rings, starts the completion poller and
// arms the QP repair pass. The poller is an engine callback that starts
// from one same-instant event.
func (b *rdmaBackend) start() {
	for _, t := range b.tenantSeq {
		b.post(t, ingressRing)
	}
	b.cqeBuf = make([]rdma.CQE, 64)
	b.pollFn = b.poll
	b.c.Eng.Immediate(b.pollFn)
	// The ingress has no keeper thread, so it re-handshakes errored
	// connections on a fixed cadence, as the DNE and gateway keepers do for
	// theirs. Repairing only on error completions is not enough: a pool
	// errored by a crash may carry no traffic afterwards.
	b.c.Eng.Ticker(ingressRepairEvery, func(time.Duration) {
		for _, t := range b.tenantSeq {
			for _, n := range b.c.nodeSeq {
				t.conns[string(n.name)].Repair()
			}
		}
	})
}

// post posts n receive buffers to a tenant's ingress SRQ, batching the
// pool Gets and the SRQ doorbell.
func (b *rdmaBackend) post(t *beTenant, n int) {
	for n > 0 {
		want := n
		if want > len(t.rqBuf) {
			want = len(t.rqBuf)
		}
		got, _ := t.pool.GetN(rqOwner, t.rqBuf[:want])
		if got == 0 {
			return
		}
		for i := 0; i < got; i++ {
			t.rqDsc[i] = mempool.Descriptor{Tenant: t.name, Buf: t.rqBuf[i]}
		}
		t.srq.PostRecvN(t.rqDsc[:got])
		n -= got
		if got < want {
			return
		}
	}
}

// ingressInvocation returns the record of the entry invocation that x's
// request starts.
func ingressInvocation(x *ingress.Exchange, ch *chain) *invocation {
	inv := &invocation{reqCtx: reqCtx{
		Chain: x.Chain, Calls: ch.Calls, RespBytes: ch.RespBytes, Ingress: x,
	}}
	if x.Group != nil {
		inv.Spec = x.Group.Killed
	}
	return inv
}

// Forward implements ingress.Backend: inject the request at the chain's
// entry function over two-sided RDMA. The gateway worker already paid the
// conversion costs; this is the wire side. Requests arriving while the
// cluster is still establishing its RC pools wait at the ingress.
func (b *rdmaBackend) Forward(x *ingress.Exchange) {
	if !b.c.isReady {
		b.c.Eng.After(time.Millisecond, func() { b.Forward(x) })
		return
	}
	ch := x.Ctx.(*chain)
	entry := b.c.resolveInstance(ch.Entry)
	t := b.tenant(ch.tenant)
	buf, err := t.cache.Get()
	if err != nil {
		b.drops++
		return
	}
	inv := ingressInvocation(x, ch)
	d := mempool.Descriptor{
		Tenant: t.name, Buf: buf, Len: int32(x.Bytes),
		Trace: x.Trace,
		Msg:   inv.request("ingress", entry.name, inv.Spec),
	}
	entry.noteInflight()
	cp := t.conns[string(entry.node.name)]
	qp := cp.Pick()
	qp.PostSend(d)
}

// poll drains the ingress CQ: send completions recycle source buffers;
// receive completions are worker responses heading to clients. It also
// replenishes the SRQ to match consumption. With the queue empty it parks
// until the next completion arrives.
func (b *rdmaBackend) poll() {
	for {
		if b.cq.Len() == 0 {
			b.cq.Notify(b.pollFn)
			return
		}
		for {
			n := b.cq.PollInto(b.cqeBuf)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				cqe := &b.cqeBuf[i]
				t := b.tenant(cqe.Desc.Tenant)
				switch cqe.Op {
				case rdma.OpSend:
					cqe.Desc.Trace.EndStage(trace.StageRDMAAck)
					if cqe.Status != rdma.StatusOK {
						b.sendErrors++
					}
					if cqe.Desc.Tenant != "" {
						if err := t.cache.Put(cqe.Desc.Buf); err != nil {
							panic(fmt.Sprintf("core: ingress send recycle: %v", err))
						}
					}
				case rdma.OpRecv:
					d := &cqe.Desc
					d.Trace.EndStage(trace.StageRDMACQ)
					mc, ok := d.Msg.Ctx.(*msgCtx)
					if !ok || mc.Inv.Ingress == nil {
						panic("core: ingress received response to no ingress request")
					}
					if err := t.pool.Transfer(d.Buf, rqOwner, ingressOwner); err != nil {
						panic(fmt.Sprintf("core: ingress recv ownership: %v", err))
					}
					if err := t.cache.Put(d.Buf); err != nil {
						panic(fmt.Sprintf("core: ingress recv recycle: %v", err))
					}
					x := mc.Inv.Ingress
					x.Done(ingressResponse(cqe.Bytes, x.Stamp))
				}
			}
		}
		for _, t := range b.tenantSeq {
			if n := int(t.srq.ConsumedReset()); n > 0 {
				b.post(t, n)
			}
		}
	}
}

// tcpBackend is the cluster side for deferred-conversion systems: the HTTP
// request is proxied over TCP to the entry function's node, which must
// terminate it there (the worker-side costs are charged by the entry
// function's socket receiver).
type tcpBackend struct {
	c *Cluster
}

func newTCPBackend(c *Cluster) *tcpBackend { return &tcpBackend{c: c} }

func (b *tcpBackend) start() {}

// Forward implements ingress.Backend. Requests arriving during cluster
// bring-up wait at the ingress.
func (b *tcpBackend) Forward(x *ingress.Exchange) {
	if !b.c.isReady {
		b.c.Eng.After(time.Millisecond, func() { b.Forward(x) })
		return
	}
	ch := x.Ctx.(*chain)
	entry := b.c.resolveInstance(ch.Entry)
	// TCP baselines carry no descriptor through a TX gate, so the only
	// mid-plane kill site is the function's inbox dequeue, which reads the
	// invocation's probe; the message record carries none.
	inv := ingressInvocation(x, ch)
	inv.request("ingress", entry.name, nil)
	entry.noteInflight()
	t0 := b.c.Eng.Now()
	b.c.Eng.After(b.c.tcpTransit(b.c.workerStack()), func() {
		x.Trace.Record(trace.StageTransit, "wire", t0, b.c.Eng.Now())
		entry.tcpIn.TryPut(tcpMsg{Bytes: x.Bytes, Ctx: &inv.req, Trace: x.Trace})
	})
}
