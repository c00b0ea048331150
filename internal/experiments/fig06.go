package experiments

import (
	"fmt"
	"time"

	"nadino/internal/dne"
	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// Fig06Row is one (setup, payload) measurement.
type Fig06Row struct {
	Setup   string
	Payload int
	RPS     float64
	MeanLat time.Duration
}

// Fig06Result holds the isolation-cost comparison (§3.2.1).
type Fig06Result struct {
	Rows []Fig06Row
}

// runNativeEcho measures an echo pair that uses two-sided verbs directly
// over a single RC QP — the paper's "native RDMA" baselines, with the
// functions' cores running at coreSpeed (host vs wimpy DPU). A non-nil
// tracer records per-stage spans for requests issued after warmup.
func runNativeEcho(p *params.Params, seed int64, coreSpeed float64, payload, clients int, dur time.Duration, tracer *trace.Tracer) (float64, time.Duration) {
	eng := sim.NewEngine(seed)
	defer eng.Stop()
	tracer.SetClock(eng.Now)
	// live is armed only after warmup so the trace covers the measured
	// steady-state window (closures read it at request-issue time).
	var live *trace.Tracer
	net := fabric.New(eng, p)
	ra := rdma.NewRNIC(eng, p, "nodeA", net)
	rb := rdma.NewRNIC(eng, p, "nodeB", net)
	poolA := mempool.NewPool("t", 16384, 4096, p.HugepageSize)
	poolB := mempool.NewPool("t", 16384, 4096, p.HugepageSize)
	srqA, srqB := rdma.NewSRQ("t"), rdma.NewSRQ("t")
	cqA, cqB := rdma.NewCQ(eng), rdma.NewCQ(eng)
	qa, qb := rdma.Connect(ra, rb, "t", srqA, srqB, cqA, cqB)
	coreA := sim.NewProcessor(eng, "cliCore", coreSpeed)
	coreB := sim.NewProcessor(eng, "srvCore", coreSpeed)

	post := func(pool *mempool.Pool, srq *rdma.SRQ, n int) {
		for i := 0; i < n; i++ {
			b, err := pool.Get("rq")
			if err != nil {
				panic(err)
			}
			srq.PostRecv(mempool.Descriptor{Tenant: "t", Buf: b})
		}
	}
	post(poolA, srqA, 256)
	post(poolB, srqB, 256)

	// Server: echo every receive, recycling and reposting buffers.
	cqLoop(eng, cqB, func(e rdma.CQE, next func()) {
		switch e.Op {
		case rdma.OpRecv:
			e.Desc.Trace.EndStage(trace.StageRDMACQ)
			sp := e.Desc.Trace.Begin("srv.proc", "srv")
			coreB.Run(p.VerbsPostCost/2, func() {
				if err := poolB.Transfer(e.Desc.Buf, "rq", "srv"); err != nil {
					panic(err)
				}
				coreB.Run(p.VerbsPostCost, func() {
					sp.End()
					qb.PostSend(mempool.Descriptor{Tenant: "t", Buf: e.Desc.Buf, Len: int32(e.Bytes), Seq: e.Desc.Seq, Trace: e.Desc.Trace})
					next()
				})
			})
		case rdma.OpSend:
			e.Desc.Trace.EndStage(trace.StageRDMAAck)
			sp := e.Desc.Trace.BeginDetail("srv.ack", "srv")
			coreB.Run(p.VerbsPostCost/2, func() {
				sp.End()
				if err := poolB.Put(e.Desc.Buf, "srv"); err != nil {
					panic(err)
				}
				post(poolB, srqB, 1)
				next()
			})
		default:
			next()
		}
	})

	var count uint64
	var rttSum time.Duration
	waiters := make(map[uint64]*sim.Queue[struct{}])
	// Client-side completion demux.
	cqLoop(eng, cqA, func(e rdma.CQE, next func()) {
		switch e.Op {
		case rdma.OpRecv:
			e.Desc.Trace.EndStage(trace.StageRDMACQ)
			sp := e.Desc.Trace.Begin("cli.proc", "cli")
			coreA.Run(p.VerbsPostCost/2, func() {
				sp.End()
				if w, ok := waiters[e.Desc.Seq]; ok {
					delete(waiters, e.Desc.Seq)
					w.TryPut(struct{}{})
				}
				if err := poolA.Transfer(e.Desc.Buf, "rq", "cli"); err != nil {
					panic(err)
				}
				if err := poolA.Put(e.Desc.Buf, "cli"); err != nil {
					panic(err)
				}
				post(poolA, srqA, 1)
				next()
			})
		case rdma.OpSend:
			e.Desc.Trace.EndStage(trace.StageRDMAAck)
			sp := e.Desc.Trace.BeginDetail("cli.ack", "cli")
			coreA.Run(p.VerbsPostCost/2, func() {
				sp.End()
				if err := poolA.Put(e.Desc.Buf, "cli"); err != nil {
					panic(err)
				}
				next()
			})
		default:
			next()
		}
	})
	var seq uint64
	for i := 0; i < clients; i++ {
		var loop, await func()
		var w *sim.Queue[struct{}]
		var start time.Duration
		var req *trace.Req
		loop = func() {
			buf, err := poolA.Get("cli")
			if err != nil {
				eng.After(20*time.Microsecond, loop)
				return
			}
			seq++
			id := seq
			w = sim.NewQueue[struct{}](eng, 1)
			waiters[id] = w
			start = eng.Now()
			req = live.StartRequest("echo/native")
			sp := req.Begin("cli.post", "cli")
			coreA.Run(p.VerbsPostCost, func() {
				sp.End()
				qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: buf, Len: int32(payload), Seq: id, Trace: req})
				await()
			})
		}
		await = func() {
			if _, ok := w.TryGet(); !ok {
				w.Notify(await)
				return
			}
			req.Finish()
			count++
			rttSum += eng.Now() - start
			loop()
		}
		eng.Immediate(loop)
	}
	// Warmup, then measure (tracing only the measured window).
	eng.RunUntil(2 * time.Millisecond)
	live = tracer
	base, baseRTT := count, rttSum
	start := eng.Now()
	eng.RunUntil(start + dur)
	n := count - base
	if n == 0 {
		return 0, 0
	}
	return float64(n) / (eng.Now() - start).Seconds(), (rttSum - baseRTT) / time.Duration(n)
}

// runDNEEcho measures the echo pair behind the full DNE isolation layer. A
// non-nil tracer records per-stage spans for requests issued after warmup.
func runDNEEcho(p *params.Params, seed int64, mode dne.Mode, payload, clients int, dur time.Duration, tracer *trace.Tracer) (float64, time.Duration) {
	r := newDNERig(p, seed, mode, dne.SchedDWRR, []tenantSpec{{name: "t", weight: 1}})
	defer r.eng.Stop()
	tracer.SetClock(r.eng.Now)
	r.tracer = tracer
	cliPort := r.ea.AttachFunction("cli-t", "t")
	srvPort := r.eb.AttachFunction("srv-t", "t")
	r.startEchoServer("t", srvPort)
	stats := r.startEchoClients("t", cliPort, clients, payload, nil)
	rps, lat := measureEcho(r, stats, dur)
	return rps, lat
}

// Fig06Setups lists the compared configurations.
var Fig06Setups = []string{"NADINO DNE", "native RDMA (CPU)", "native RDMA (DPU)"}

// Fig06 runs the §3.2.1 isolation-cost microbenchmark. With o.Trace set it
// also hands one per-(setup, payload) latency-attribution tracer to
// o.TraceSink. Sweep points are independent engines, sharded by o.Parallel.
func Fig06(o Opts) *Fig06Result {
	payloads := o.pick([]int{64, 4096}, []int{64, 512, 1024, 4096})
	dur := o.scale(20*time.Millisecond, 200*time.Millisecond)
	const clients = 4
	type job struct {
		setup   string
		payload int
	}
	var jobs []job
	for _, pl := range payloads {
		for _, setup := range Fig06Setups {
			jobs = append(jobs, job{setup: setup, payload: pl})
		}
	}
	rows := make([]Fig06Row, len(jobs))
	tracers := make([]*trace.Tracer, len(jobs))
	o.forEach(len(jobs), func(i int) {
		j := jobs[i]
		p := params.Default()
		var tr *trace.Tracer
		if o.Trace {
			tr = trace.New(nil) // clock attached by the echo runner
		}
		var rps float64
		var lat time.Duration
		switch j.setup {
		case "NADINO DNE":
			rps, lat = runDNEEcho(p, o.Seed, dne.OffPath, j.payload, clients, dur, tr)
		case "native RDMA (CPU)":
			rps, lat = runNativeEcho(p, o.Seed, p.HostCoreSpeed, j.payload, clients, dur, tr)
		case "native RDMA (DPU)":
			rps, lat = runNativeEcho(p, o.Seed, p.DPUNetSpeed, j.payload, clients, dur, tr)
		}
		rows[i] = Fig06Row{Setup: j.setup, Payload: j.payload, RPS: rps, MeanLat: lat}
		tracers[i] = tr
	})
	for i, tr := range tracers {
		if tr != nil && o.TraceSink != nil {
			o.TraceSink(fmt.Sprintf("%s/%dB", jobs[i].setup, jobs[i].payload), tr)
		}
	}
	return &Fig06Result{Rows: rows}
}

// Get returns the row for (setup, payload).
func (r *Fig06Result) Get(setup string, payload int) (Fig06Row, bool) {
	for _, row := range r.Rows {
		if row.Setup == setup && row.Payload == payload {
			return row, true
		}
	}
	return Fig06Row{}, false
}

// RunFig06 adapts Fig06 to the experiment registry.
func RunFig06(o Opts) []*Table {
	res := Fig06(o)
	t := &Table{
		Title:   "Fig. 6 — isolation cost of DNE (two-sided RDMA echo)",
		Columns: []string{"setup", "payload", "RPS", "mean latency"},
		Note:    "DNE adds a bounded isolation cost over native RDMA; wimpy-core penalty on verbs is minimal",
	}
	for _, row := range res.Rows {
		t.Rows = append(t.Rows, []string{row.Setup, fmt.Sprintf("%dB", row.Payload), fRPS(row.RPS), fLat(row.MeanLat)})
	}
	return []*Table{t}
}
