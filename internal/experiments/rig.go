package experiments

import (
	"time"

	"nadino/internal/dne"
	"nadino/internal/dpu"
	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
	"nadino/internal/telemetry"
	"nadino/internal/trace"
)

// dneRig is a two-worker-node setup with a network engine per node and one
// or more tenants, used by the microbenchmarks (Figs. 6, 11, 15, 17).
type dneRig struct {
	eng    *sim.Engine
	p      *params.Params
	net    *fabric.Network
	dpuA   *dpu.DPU
	dpuB   *dpu.DPU
	ea, eb *dne.Engine
	pools  map[string][2]*mempool.Pool // per tenant: [nodeA, nodeB]
	ready  *sim.Queue[struct{}]
}

// rigSide is one node of a dneRig: its engine and DPU, and the peer node.
type rigSide struct {
	node, peer fabric.NodeID
	e          *dne.Engine
	d          *dpu.DPU
}

func (r *dneRig) sides() [2]rigSide {
	return [2]rigSide{{"nodeA", "nodeB", r.ea, r.dpuA}, {"nodeB", "nodeA", r.eb, r.dpuB}}
}

// repairs sums the QP re-handshakes of both engines' conn pools.
func (r *dneRig) repairs() (n uint64) {
	for _, side := range r.sides() {
		for _, cp := range side.e.ConnPools() {
			n += cp.Repairs()
		}
	}
	return n
}

// tenantSpec declares one tenant on the rig.
type tenantSpec struct {
	name   string
	weight int
}

// newDNERig builds engines with the given scheduler/mode and tenants, and
// attaches an echo client/server function pair per tenant ("cli-<t>" on
// node A, "srv-<t>" on node B).
func newDNERig(p *params.Params, seed int64, mode dne.Mode, sched dne.SchedulerKind, tenants []tenantSpec, cfgMods ...func(*dne.Config)) *dneRig {
	eng := sim.NewEngine(seed)
	net := fabric.New(eng, p)
	r := &dneRig{
		eng:   eng,
		p:     p,
		net:   net,
		dpuA:  dpu.New(eng, p, "nodeA", net),
		dpuB:  dpu.New(eng, p, "nodeB", net),
		pools: make(map[string][2]*mempool.Pool),
		ready: sim.NewQueue[struct{}](eng, 0),
	}
	cfgA := dne.Config{Node: "nodeA", Mode: mode, Sched: sched}
	cfgB := dne.Config{Node: "nodeB", Mode: mode, Sched: sched}
	for _, mod := range cfgMods {
		mod(&cfgA)
		mod(&cfgB)
	}
	r.ea = dne.New(eng, p, cfgA, r.dpuA, nil, nil)
	r.eb = dne.New(eng, p, cfgB, r.dpuB, nil, nil)
	for _, ts := range tenants {
		pa := mempool.NewPool(ts.name, 16384, 8192, p.HugepageSize)
		pb := mempool.NewPool(ts.name, 16384, 8192, p.HugepageSize)
		r.pools[ts.name] = [2]*mempool.Pool{pa, pb}
		r.ea.AddTenant(ts.name, pa, ts.weight)
		r.eb.AddTenant(ts.name, pb, ts.weight)
		r.ea.SetRoute("srv-"+ts.name, "nodeB")
		r.eb.SetRoute("cli-"+ts.name, "nodeA")
	}
	eng.Immediate(func() {
		// Tenants establish their connection pools concurrently; the rig
		// is ready from one event after the last.
		left := len(tenants)
		for _, ts := range tenants {
			ts := ts
			eng.Immediate(func() {
				rdma.EstablishPair(eng, p, ts.name,
					r.dpuA.RNIC(), r.dpuB.RNIC(), 8,
					r.ea.SRQ(ts.name), r.eb.SRQ(ts.name), r.ea.CQ(), r.eb.CQ(), func(cpA, cpB *rdma.ConnPool) {
						r.ea.AddConnPool("nodeB", ts.name, cpA)
						r.eb.AddConnPool("nodeA", ts.name, cpB)
						if left--; left == 0 {
							eng.Immediate(func() {
								r.ea.Start()
								r.eb.Start()
								r.ready.TryPut(struct{}{})
							})
						}
					})
			})
		}
	})
	return r
}

// onReady runs fn once QP establishment completes: at once when it has,
// else when the ready token reaches it (each waiter passes it on).
func (r *dneRig) onReady(fn func()) {
	if _, ok := r.ready.TryGet(); !ok {
		r.ready.Notify(func() { r.onReady(fn) })
		return
	}
	r.ready.TryPut(struct{}{})
	fn()
}

// portSender hands one flow's descriptors — from the port's function to
// dst — to the port one at a time, paying each channel send cost on core,
// then runs then (if set). Every descriptor it sends shares the flow's one
// record, and its continuation is bound once, so a steady-state send
// allocates nothing.
type portSender struct {
	port   *dne.FnPort
	core   *sim.Processor
	then   func()
	msg    mempool.Msg
	d      mempool.Descriptor
	sp     trace.SpanRef
	sentFn func()
}

func newPortSender(port *dne.FnPort, core *sim.Processor, dst string, then func()) *portSender {
	s := &portSender{port: port, core: core, then: then, msg: mempool.Msg{Src: port.Fn(), Dst: dst}}
	s.sentFn = s.sent
	return s
}

// send starts handing d (and the buffer it owns) to the port.
func (s *portSender) send(d mempool.Descriptor) {
	d.Msg = &s.msg
	cost, sp, err := s.port.SendBegin(&d)
	if err != nil {
		panic(err)
	}
	s.d, s.sp = d, sp
	s.core.Run(cost, s.sentFn)
}

func (s *portSender) sent() {
	d := s.d
	s.d = mempool.Descriptor{}
	s.port.SendEnd(d, s.sp)
	if s.then != nil {
		s.then()
	}
}

// portReceiver is a function's receive loop on its port: recv waits for
// the next descriptor, pays the channel wakeup cost on core and passes the
// descriptor (owned by the function) to then, which calls recv again to
// take the next. Its continuations are bound once, so a steady-state
// receive allocates nothing.
type portReceiver struct {
	port          *dne.FnPort
	core          *sim.Processor
	then          func(mempool.Descriptor)
	d             mempool.Descriptor
	sp            trace.SpanRef
	recvFn, gotFn func()
}

// startPortReceiver starts the receive loop from one same-instant event.
func startPortReceiver(eng *sim.Engine, port *dne.FnPort, core *sim.Processor, then func(mempool.Descriptor)) *portReceiver {
	r := &portReceiver{port: port, core: core, then: then}
	r.recvFn, r.gotFn = r.recv, r.got
	eng.Immediate(r.recvFn)
	return r
}

func (r *portReceiver) recv() {
	d, ok := r.port.TryRecv()
	if !ok {
		r.port.NotifyRecv(r.recvFn)
		return
	}
	sp, cost := r.port.Received(&d)
	r.d, r.sp = d, sp
	r.core.Run(cost, r.gotFn)
}

func (r *portReceiver) got() {
	d := r.d
	r.d = mempool.Descriptor{}
	r.sp.End()
	r.then(d)
}

// cqLoop runs a completion loop over cq from one same-instant event: wait
// for completions, poll them, and hand each entry to handle in turn;
// handle resumes the loop by calling next once it is done with its entry.
func cqLoop(eng *sim.Engine, cq *rdma.CQ, handle func(e rdma.CQE, next func())) {
	var batch []rdma.CQE
	var loop func()
	loop = func() {
		if len(batch) == 0 {
			if cq.Len() == 0 {
				cq.Notify(loop)
				return
			}
			batch = cq.Poll(0)
		}
		e := batch[0]
		batch = batch[1:]
		handle(e, loop)
	}
	eng.Immediate(loop)
}

// awaitCQ runs fn once cq holds a completion: at once if it already does,
// else from the wake of the next push to it.
func awaitCQ(cq *rdma.CQ, fn func()) {
	if cq.Len() > 0 {
		fn()
		return
	}
	cq.Notify(func() { awaitCQ(cq, fn) })
}

// discardCQ empties cq every time completions land in it: send-completion
// bookkeeping nobody reads.
func discardCQ(eng *sim.Engine, cq *rdma.CQ) {
	cqLoop(eng, cq, func(_ rdma.CQE, next func()) { next() })
}

// attachEcho attaches tenant's client function ("cli-<t>") on node A and
// its echo server ("srv-<t>") on node B, starts the server and returns the
// client's port.
func (r *dneRig) attachEcho(tenant string) *dne.FnPort {
	cli := r.ea.AttachFunction("cli-"+tenant, tenant)
	r.startEchoServer(tenant, r.eb.AttachFunction("srv-"+tenant, tenant))
	return cli
}

// startEchoServer runs a server function for tenant on node B with its own
// host core: every request descriptor is answered with a same-size reply.
func (r *dneRig) startEchoServer(tenant string, port *dne.FnPort) {
	core := sim.NewProcessor(r.eng, "srv-core-"+tenant, r.p.HostCoreSpeed)
	pool := r.pools[tenant][1]
	srv := mempool.Owner(port.Fn())
	var rx *portReceiver
	// The server answers only its tenant's client.
	tx := newPortSender(port, core, "cli-"+tenant, func() { rx.recv() })
	var reply func(d mempool.Descriptor)
	reply = func(d mempool.Descriptor) {
		buf, err := pool.Get(srv)
		if err != nil {
			// Pool squeeze: under a chaos storm the tenant's buffers can be
			// transiently pinned in the engine's retry path. Hold the
			// request until one comes home — a function backpressures on
			// its pool, it doesn't crash. The stall propagates upstream as
			// RNR once the RQ ring can't replenish either.
			r.eng.After(20*time.Microsecond, func() { reply(d) })
			return
		}
		if err := pool.Put(d.Buf, srv); err != nil {
			panic(err)
		}
		tx.send(mempool.Descriptor{
			Tenant: tenant, Buf: buf, Len: d.Len, Seq: d.Seq, Trace: d.Trace,
		})
	}
	rx = startPortReceiver(r.eng, port, core, reply)
}

// startEchoClients attaches tenant's echo pair and runs n concurrent
// closed-loop echo clients for it on node A, all multiplexed over the
// tenant's single client function port (serverless functions multiplex
// many in-flight requests). active gates the load (nil = always on).
func (r *dneRig) startEchoClients(tenant string, n, payload int, active func(now time.Duration) bool) *echoLoad {
	port := r.attachEcho(tenant)
	core := sim.NewProcessor(r.eng, "cli-core-"+tenant, r.p.HostCoreSpeed)
	pool := r.pools[tenant][0]
	cli := mempool.Owner("cli-" + tenant)
	put := func(d mempool.Descriptor) {
		if err := pool.Put(d.Buf, cli); err != nil {
			panic(err)
		}
	}
	l := newEchoLoad(r.eng, n)
	l.name, l.pool, l.owner, l.retry = "echo/"+tenant, pool, cli, 50*time.Microsecond
	l.active, l.jitter, l.recycle = active, true, put
	// A reply no client awaits is a duplicate delivery from the engine's
	// at-least-once retry path: reply recycles it, or the buffer leaks.
	var demux *portReceiver
	demux = startPortReceiver(r.eng, port, core, func(d mempool.Descriptor) {
		l.reply(d)
		demux.recv()
	})
	tx := make([]*portSender, n)
	for i := range tx {
		tx[i] = newPortSender(port, core, "srv-"+tenant, nil)
	}
	l.send = func(c *echoClient, buf mempool.Buffer) {
		tx[c.i].send(mempool.Descriptor{
			Tenant: tenant, Buf: buf, Len: int32(payload), Seq: c.seq, Trace: c.req,
		})
	}
	l.start(r.onReady)
	return l
}

// verbsPair is the raw-verbs world of the native, one-sided, victim and
// per-request-handshake rigs: a fabric, an RNIC and a pool per node, the
// CQs and one RC pair between the nodes, plus an SRQ per side holding a
// posted receive ring when ring > 0 (nil SRQs otherwise). Pool geometry
// matters: a registered pool's pages set the RNIC's MTT pressure.
type verbsPair struct {
	eng          *sim.Engine
	p            *params.Params
	tenant       string
	ra, rb       *rdma.RNIC
	poolA, poolB *mempool.Pool
	srqA, srqB   *rdma.SRQ
	cqA, cqB     *rdma.CQ
	qa, qb       *rdma.QP
}

func newVerbsPair(p *params.Params, seed int64, nodeA, nodeB fabric.NodeID, tenant string, bufSize, bufs, ring int) *verbsPair {
	eng := sim.NewEngine(seed)
	net := fabric.New(eng, p)
	v := &verbsPair{
		eng:    eng,
		p:      p,
		tenant: tenant,
		ra:     rdma.NewRNIC(eng, p, nodeA, net),
		rb:     rdma.NewRNIC(eng, p, nodeB, net),
		poolA:  mempool.NewPool(tenant, bufSize, bufs, p.HugepageSize),
		poolB:  mempool.NewPool(tenant, bufSize, bufs, p.HugepageSize),
		cqA:    rdma.NewCQ(eng),
		cqB:    rdma.NewCQ(eng),
	}
	if ring > 0 {
		v.srqA, v.srqB = rdma.NewSRQ(tenant), rdma.NewSRQ(tenant)
		v.post(v.poolA, v.srqA, ring)
		v.post(v.poolB, v.srqB, ring)
	}
	v.qa, v.qb = rdma.Connect(v.ra, v.rb, tenant, v.srqA, v.srqB, v.cqA, v.cqB)
	return v
}

// post posts n receive buffers from pool (one side of the pair) to srq.
func (v *verbsPair) post(pool *mempool.Pool, srq *rdma.SRQ, n int) {
	for i := 0; i < n; i++ {
		b, err := pool.Get("rq")
		if err != nil {
			panic(err)
		}
		srq.PostRecv(mempool.Descriptor{Tenant: v.tenant, Buf: b})
	}
}

// serveEcho runs both ends of a two-sided echo over the pair's receive
// rings: node B answers each receive with a same-size reply from the same
// buffer and node A hands each reply to replied; each side returns a
// buffer once its send completes and reposts a receive buffer for each one
// it consumed. With cores, every completion costs verbs time on its side's
// core and is traced; nil cores handle completions as they are polled.
func (v *verbsPair) serveEcho(coreA, coreB *sim.Processor, replied func(d mempool.Descriptor)) {
	verbs := v.p.VerbsPostCost
	run := func(core *sim.Processor, cost time.Duration, fn func()) {
		if core == nil {
			fn()
			return
		}
		core.Run(cost, fn)
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// Server: echo every receive, recycling and reposting buffers.
	cqLoop(v.eng, v.cqB, func(e rdma.CQE, next func()) {
		switch e.Op {
		case rdma.OpRecv:
			e.Desc.Trace.EndStage(trace.StageRDMACQ)
			sp := e.Desc.Trace.Begin("srv.proc", "srv")
			run(coreB, verbs/2, func() {
				must(v.poolB.Transfer(e.Desc.Buf, "rq", "srv"))
				run(coreB, verbs, func() {
					sp.End()
					v.qb.PostSend(mempool.Descriptor{Tenant: v.tenant, Buf: e.Desc.Buf, Len: int32(e.Bytes), Seq: e.Desc.Seq, Trace: e.Desc.Trace})
					next()
				})
			})
		case rdma.OpSend:
			e.Desc.Trace.EndStage(trace.StageRDMAAck)
			sp := e.Desc.Trace.BeginDetail("srv.ack", "srv")
			run(coreB, verbs/2, func() {
				sp.End()
				must(v.poolB.Put(e.Desc.Buf, "srv"))
				v.post(v.poolB, v.srqB, 1)
				next()
			})
		default:
			next()
		}
	})
	// Client-side completion demux.
	cqLoop(v.eng, v.cqA, func(e rdma.CQE, next func()) {
		switch e.Op {
		case rdma.OpRecv:
			e.Desc.Trace.EndStage(trace.StageRDMACQ)
			sp := e.Desc.Trace.Begin("cli.proc", "cli")
			run(coreA, verbs/2, func() {
				sp.End()
				must(v.poolA.Transfer(e.Desc.Buf, "rq", "cli"))
				must(v.poolA.Put(e.Desc.Buf, "cli"))
				v.post(v.poolA, v.srqA, 1)
				replied(e.Desc)
				next()
			})
		case rdma.OpSend:
			e.Desc.Trace.EndStage(trace.StageRDMAAck)
			sp := e.Desc.Trace.BeginDetail("cli.ack", "cli")
			run(coreA, verbs/2, func() {
				sp.End()
				must(v.poolA.Put(e.Desc.Buf, "cli"))
				next()
			})
		default:
			next()
		}
	})
}

// echoLoad runs echo clients over a transport's send function and
// tallies their echoes. A closed-loop client waits for its reply before
// issuing the next request: the transport either hands replies to reply,
// which matches them by sequence number and resumes the client from one
// same-instant event, or, when the client waits on a channel of its own,
// calls the client's done in line. The open-loop sender drives one client
// of its own pace and records its replies itself.
type echoLoad struct {
	eng     *sim.Engine
	clients []echoClient
	count   uint64
	rttSum  time.Duration
	// rtt is the optional telemetry histogram handle (set by rigTelemetry);
	// Observe on the nil default is a no-op, so the client loop carries the
	// instrumentation unconditionally at zero cost when telemetry is off.
	rtt *telemetry.Hist
	// tracer, when non-nil, records per-stage spans for requests issued
	// while it is set; window arms it only after warm-up.
	tracer *trace.Tracer

	name   string        // trace request name
	pool   *mempool.Pool // request buffers (nil: the transport needs none)
	owner  mempool.Owner
	retry  time.Duration                // backoff after a failed pool get
	active func(now time.Duration) bool // load gate (nil = always on)
	jitter bool                         // think-time jitter before each request
	// send hands client c's request, carrying c.seq and c.req, with buf
	// (when pool is set) to the transport.
	send func(c *echoClient, buf mempool.Buffer)
	// recycle, when set, takes back a reply: a matched one once its client
	// resumed, a duplicate at once. Else the transport disposes of replies.
	recycle func(d mempool.Descriptor)
}

func (l *echoLoad) record(rtt time.Duration) {
	l.count++
	l.rttSum += rtt
	l.rtt.Observe(rtt)
}

// window runs the engine through warm-up (until warm), then arms tr on the
// engine's clock — requests issued during warm-up would otherwise skew the
// trace's end-to-end mean against the steady-state RTT — and measures dur
// more, returning RPS and mean RTT over the echoes completed in it.
func (l *echoLoad) window(warm, dur time.Duration, tr *trace.Tracer) (float64, time.Duration) {
	l.eng.RunUntil(warm)
	tr.SetClock(l.eng.Now)
	l.tracer = tr
	base, baseRTT := l.count, l.rttSum
	start := l.eng.Now()
	l.eng.RunUntil(start + dur)
	n := l.count - base
	if n == 0 {
		return 0, 0
	}
	return float64(n) / (l.eng.Now() - start).Seconds(), (l.rttSum - baseRTT) / time.Duration(n)
}

// echoClient is one closed-loop client. Its requests' sequence numbers
// are i+1, i+1+n, i+1+2n, ... for n clients, so a reply names its client.
type echoClient struct {
	l     *echoLoad
	i     int
	seq   uint64 // the request in flight, or the next one
	start time.Duration
	req   *trace.Req
	resp  mempool.Descriptor // the matched reply, until done recycles it

	loopFn, issueFn, doneFn func()
}

func newEchoLoad(eng *sim.Engine, n int) *echoLoad {
	l := &echoLoad{eng: eng, clients: make([]echoClient, n)}
	for i := range l.clients {
		c := &l.clients[i]
		c.l, c.i, c.seq = l, i, uint64(i+1)
		c.loopFn, c.issueFn, c.doneFn = c.loop, c.issue, c.done
	}
	return l
}

// start runs every client's first request from one same-instant event
// each, through ready when set (a rig's setup gate).
func (l *echoLoad) start(ready func(fn func())) {
	for i := range l.clients {
		c := &l.clients[i]
		if ready == nil {
			l.eng.Immediate(c.loopFn)
			continue
		}
		l.eng.Immediate(func() { ready(c.loopFn) })
	}
}

// slot returns the index of the client that issued seq.
func (l *echoLoad) slot(seq uint64) int { return int((seq - 1) % uint64(len(l.clients))) }

// reply matches d to the client awaiting d.Seq and resumes it from one
// same-instant event. A reply no client awaits (a duplicate) goes straight
// to recycle.
func (l *echoLoad) reply(d mempool.Descriptor) {
	c := &l.clients[l.slot(d.Seq)]
	if c.seq != d.Seq {
		if l.recycle != nil {
			l.recycle(d)
		}
		return
	}
	c.seq += uint64(len(l.clients))
	c.resp = d
	l.eng.Immediate(c.doneFn)
}

func (c *echoClient) loop() {
	l := c.l
	if l.active != nil && !l.active(l.eng.Now()) {
		l.eng.After(500*time.Microsecond, c.loopFn)
		return
	}
	if l.jitter {
		// Tiny think-time jitter decorrelates the closed-loop clients
		// (real handlers are never perfectly lockstep); without it the
		// deterministic pipeline phase-locks into convoys that leave the
		// engine artificially idle.
		l.eng.After(time.Duration(l.eng.Rand().Intn(3000))*time.Nanosecond, c.issueFn)
		return
	}
	c.issue()
}

func (c *echoClient) issue() {
	l := c.l
	var buf mempool.Buffer
	if l.pool != nil {
		var err error
		if buf, err = l.pool.Get(l.owner); err != nil {
			l.eng.After(l.retry, c.loopFn)
			return
		}
	}
	c.start = l.eng.Now()
	c.req = l.tracer.StartRequest(l.name)
	l.send(c, buf)
}

// done completes c's request — RTT, recycled reply — and loops.
func (c *echoClient) done() {
	l := c.l
	c.req.Finish()
	l.record(l.eng.Now() - c.start)
	if l.recycle != nil {
		l.recycle(c.resp)
		c.resp = mempool.Descriptor{}
	}
	c.loop()
}

// EchoProbe runs a short DNE echo workload and returns its RPS and mean
// RTT. It is the standard "is the whole data path alive" probe used by the
// repository's benchmarks.
func EchoProbe(p *params.Params, seed int64) (float64, time.Duration) {
	return runDNEEcho(p, seed, dne.OffPath, 1024, 4, 10*time.Millisecond, nil)
}
