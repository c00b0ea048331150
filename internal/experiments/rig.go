package experiments

import (
	"fmt"
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
	eng.Spawn("rig-setup", func(pr *sim.Proc) {
		// Tenants establish their connection pools concurrently.
		done := sim.NewQueue[struct{}](eng, 0)
		for _, ts := range tenants {
			ts := ts
			eng.Spawn("rig-setup-"+ts.name, func(spr *sim.Proc) {
				cpA, cpB := rdma.EstablishPair(spr, p, ts.name,
					r.dpuA.RNIC(), r.dpuB.RNIC(), 8,
					r.ea.SRQ(ts.name), r.eb.SRQ(ts.name), r.ea.CQ(), r.eb.CQ())
				r.ea.AddConnPool("nodeB", ts.name, cpA)
				r.eb.AddConnPool("nodeA", ts.name, cpB)
				done.TryPut(struct{}{})
			})
		}
		for range tenants {
			done.Get(pr)
		}
		r.ea.Start()
		r.eb.Start()
		r.ready.TryPut(struct{}{})
	})
	return r
}

// waitReady parks pr until QP establishment completes.
func (r *dneRig) waitReady(pr *sim.Proc) {
	r.ready.Get(pr)
	r.ready.TryPut(struct{}{})
}

// spawnEchoServer runs a server function for tenant on node B with its own
// host core: every request descriptor is answered with a same-size reply.
func (r *dneRig) spawnEchoServer(tenant string, port *dne.FnPort) {
	core := sim.NewProcessor(r.eng, "srv-core-"+tenant, r.p.HostCoreSpeed)
	pool := r.pools[tenant][1]
	srvName := "srv-" + tenant // hoisted: was a per-request concat
	srv := mempool.Owner(srvName)
	r.eng.Spawn(srvName, func(pr *sim.Proc) {
		for {
			d := port.Recv(pr, core)
			reply, err := pool.Get(srv)
			for err != nil {
				// Pool squeeze: under a chaos storm the tenant's buffers can
				// be transiently pinned in the engine's retry path. Block the
				// handler until one comes home — a function backpressures on
				// its pool, it doesn't crash. The stall propagates upstream as
				// RNR once the RQ ring can't replenish either.
				pr.Sleep(20 * time.Microsecond)
				reply, err = pool.Get(srv)
			}
			if err := pool.Put(d.Buf, srv); err != nil {
				panic(err)
			}
			out := mempool.Descriptor{
				Tenant: tenant, Buf: reply, Len: d.Len,
				Src: srvName, Dst: d.Src, Seq: d.Seq, Stamp: d.Stamp, Ctx: d.Ctx,
				Trace: d.Trace,
			}
			if err := port.Send(pr, core, out); err != nil {
				panic(err)
			}
		}
	})
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

// spawnEchoClients runs n concurrent closed-loop echo clients for tenant
// on node A, all multiplexed over the tenant's single client function port
// (serverless functions multiplex many in-flight requests). active gates
// the load (nil = always on). Returns the shared stats.
func (r *dneRig) spawnEchoClients(tenant string, port *dne.FnPort, n, payload int, active func(now time.Duration) bool) *echoClientStats {
	core := sim.NewProcessor(r.eng, "cli-core-"+tenant, r.p.HostCoreSpeed)
	pool := r.pools[tenant][0]
	// Hoisted per-request strings: these were concatenated per echo.
	cliName := "cli-" + tenant
	srvName := "srv-" + tenant
	echoName := "echo/" + tenant
	cli := mempool.Owner(cliName)
	stats := &echoClientStats{}
	// One demux proc feeds per-request rendezvous queues.
	type waiter = *sim.Queue[mempool.Descriptor]
	waiters := make(map[uint64]waiter)
	r.eng.Spawn("cli-demux-"+tenant, func(pr *sim.Proc) {
		for {
			d := port.Recv(pr, core)
			if w, ok := waiters[d.Seq]; ok {
				delete(waiters, d.Seq)
				w.TryPut(d)
			} else if err := pool.Put(d.Buf, cli); err != nil {
				// No waiter: a duplicate delivery from the engine's
				// at-least-once retry path. Recycle it, or the buffer leaks.
				panic(err)
			}
		}
	})
	var seq uint64
	for i := 0; i < n; i++ {
		r.eng.Spawn(fmt.Sprintf("cli-%s-%d", tenant, i), func(pr *sim.Proc) {
			r.waitReady(pr)
			respQ := sim.NewQueue[mempool.Descriptor](r.eng, 0)
			for {
				if active != nil && !active(pr.Now()) {
					pr.Sleep(500 * time.Microsecond)
					continue
				}
				// Tiny think-time jitter decorrelates the closed-loop
				// clients (real handlers are never perfectly lockstep);
				// without it the deterministic pipeline phase-locks into
				// convoys that leave the engine artificially idle.
				pr.Sleep(time.Duration(r.eng.Rand().Intn(3000)) * time.Nanosecond)
				buf, err := pool.Get(cli)
				if err != nil {
					pr.Sleep(50 * time.Microsecond)
					continue
				}
				seq++
				id := seq
				waiters[id] = respQ
				start := pr.Now()
				req := r.tracer.StartRequest(echoName)
				d := mempool.Descriptor{
					Tenant: tenant, Buf: buf, Len: payload,
					Src: cliName, Dst: srvName, Seq: id, Stamp: start,
					Trace: req,
				}
				if err := port.Send(pr, core, d); err != nil {
					panic(err)
				}
				resp := respQ.Get(pr)
				req.Finish()
				stats.count++
				stats.rttSum += pr.Now() - start
				stats.rtt.Observe(pr.Now() - start)
				if err := pool.Put(resp.Buf, cli); err != nil {
					panic(err)
				}
			}
		})
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
