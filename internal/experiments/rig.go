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
	// tracer, when non-nil, records per-stage spans for echo requests.
	// measureEcho nils it during warmup so only steady-state requests are
	// traced.
	tracer *trace.Tracer
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
		dpuA:  dpu.New(eng, p, "nodeA", net, 2),
		dpuB:  dpu.New(eng, p, "nodeB", net, 2),
		pools: make(map[string][2]*mempool.Pool),
		ready: sim.NewQueue[struct{}](eng, 0),
	}
	cfgA := dne.Config{Node: "nodeA", Mode: mode, Sched: sched, Channel: dpu.ComchE}
	cfgB := dne.Config{Node: "nodeB", Mode: mode, Sched: sched, Channel: dpu.ComchE}
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
// then runs then. Every descriptor it sends shares the flow's one record,
// and its continuation is bound once, so a steady-state send allocates
// nothing.
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
	s.then()
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
	sp, cost, charge := r.port.Received(&d)
	r.d, r.sp = d, sp
	if !charge {
		r.got()
		return
	}
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
	var drain func()
	drain = func() {
		cq.Poll(0)
		cq.Notify(drain)
	}
	eng.Immediate(drain)
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

// echoClientStats collects per-client echo results.
type echoClientStats struct {
	count  uint64
	rttSum time.Duration
	// rtt is the optional telemetry histogram handle (set by rigTelemetry);
	// Observe on the nil default is a no-op, so the client loop carries the
	// instrumentation unconditionally at zero cost when telemetry is off.
	rtt *telemetry.Hist
}

// startEchoClients runs n concurrent closed-loop echo clients for tenant
// on node A, all multiplexed over the tenant's single client function port
// (serverless functions multiplex many in-flight requests). active gates
// the load (nil = always on). Returns the shared stats.
func (r *dneRig) startEchoClients(tenant string, port *dne.FnPort, n, payload int, active func(now time.Duration) bool) *echoClientStats {
	core := sim.NewProcessor(r.eng, "cli-core-"+tenant, r.p.HostCoreSpeed)
	pool := r.pools[tenant][0]
	// Hoisted per-request strings: these were concatenated per echo.
	cliName := "cli-" + tenant
	srvName := "srv-" + tenant
	echoName := "echo/" + tenant
	cli := mempool.Owner(cliName)
	stats := &echoClientStats{}
	// One demux loop feeds per-request rendezvous queues.
	waiters := make(map[uint64]*sim.Queue[mempool.Descriptor])
	var demux *portReceiver
	demux = startPortReceiver(r.eng, port, core, func(d mempool.Descriptor) {
		if w, ok := waiters[d.Seq]; ok {
			delete(waiters, d.Seq)
			w.TryPut(d)
		} else if err := pool.Put(d.Buf, cli); err != nil {
			// No waiter: a duplicate delivery from the engine's
			// at-least-once retry path. Recycle it, or the buffer leaks.
			panic(err)
		}
		demux.recv()
	})
	var seq uint64
	for i := 0; i < n; i++ {
		respQ := sim.NewQueue[mempool.Descriptor](r.eng, 0)
		var loop, issue, await func()
		var start time.Duration
		var req *trace.Req
		tx := newPortSender(port, core, srvName, func() { await() })
		loop = func() {
			if active != nil && !active(r.eng.Now()) {
				r.eng.After(500*time.Microsecond, loop)
				return
			}
			// Tiny think-time jitter decorrelates the closed-loop clients
			// (real handlers are never perfectly lockstep); without it the
			// deterministic pipeline phase-locks into convoys that leave
			// the engine artificially idle.
			r.eng.After(time.Duration(r.eng.Rand().Intn(3000))*time.Nanosecond, issue)
		}
		issue = func() {
			buf, err := pool.Get(cli)
			if err != nil {
				r.eng.After(50*time.Microsecond, loop)
				return
			}
			seq++
			id := seq
			waiters[id] = respQ
			start = r.eng.Now()
			req = r.tracer.StartRequest(echoName)
			tx.send(mempool.Descriptor{
				Tenant: tenant, Buf: buf, Len: int32(payload), Seq: id, Trace: req,
			})
		}
		await = func() {
			resp, ok := respQ.TryGet()
			if !ok {
				respQ.Notify(await)
				return
			}
			req.Finish()
			rtt := r.eng.Now() - start
			stats.count++
			stats.rttSum += rtt
			stats.rtt.Observe(rtt)
			if err := pool.Put(resp.Buf, cli); err != nil {
				panic(err)
			}
			loop()
		}
		r.eng.Immediate(func() { r.onReady(loop) })
	}
	return stats
}

// measureEcho runs the rig for dur (after setup) and returns RPS and mean
// RTT for the tenant stats.
func measureEcho(r *dneRig, stats *echoClientStats, dur time.Duration) (float64, time.Duration) {
	// Trace only the measured window: requests issued during warmup would
	// otherwise skew the trace's end-to-end mean relative to the reported
	// steady-state RTT.
	tr := r.tracer
	r.tracer = nil
	r.eng.RunUntil(r.p.QPSetupTime + 2*time.Millisecond) // warmup
	r.tracer = tr
	base := stats.count
	baseRTT := stats.rttSum
	start := r.eng.Now()
	r.eng.RunUntil(start + dur)
	n := stats.count - base
	if n == 0 {
		return 0, 0
	}
	return float64(n) / (r.eng.Now() - start).Seconds(), (stats.rttSum - baseRTT) / time.Duration(n)
}

// EchoProbe runs a short DNE echo workload and returns its RPS and mean
// RTT. It is the standard "is the whole data path alive" probe used by the
// repository's benchmarks.
func EchoProbe(p *params.Params, seed int64) (float64, time.Duration) {
	return runDNEEcho(p, seed, dne.OffPath, 1024, 4, 10*time.Millisecond, nil)
}
