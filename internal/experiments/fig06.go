package experiments

import (
	"fmt"
	"time"

	"nadino/internal/dne"
	"nadino/internal/mempool"
	"nadino/internal/params"
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
	v, l := newNativeEcho(p, seed, coreSpeed, payload, clients)
	defer v.eng.Stop()
	return l.window(2*time.Millisecond, dur, tracer)
}

// newNativeEcho builds the native echo pair and starts its clients.
func newNativeEcho(p *params.Params, seed int64, coreSpeed float64, payload, clients int) (*verbsPair, *echoLoad) {
	v := newVerbsPair(p, seed, "nodeA", "nodeB", "t", 16384, 4096, 256)
	coreA := sim.NewProcessor(v.eng, "cliCore", coreSpeed)
	coreB := sim.NewProcessor(v.eng, "srvCore", coreSpeed)
	l := newEchoLoad(v.eng, clients)
	l.name, l.pool, l.owner, l.retry = "echo/native", v.poolA, "cli", 20*time.Microsecond
	l.send = func(c *echoClient, buf mempool.Buffer) {
		sp := c.req.Begin("cli.post", "cli")
		coreA.Run(p.VerbsPostCost, func() {
			sp.End()
			v.qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: buf, Len: int32(payload), Seq: c.seq, Trace: c.req})
		})
	}
	v.serveEcho(coreA, coreB, l.reply)
	l.start(nil)
	return v, l
}

// runDNEEcho measures the echo pair behind the full DNE isolation layer. A
// non-nil tracer records per-stage spans for requests issued after warmup.
func runDNEEcho(p *params.Params, seed int64, mode dne.Mode, payload, clients int, dur time.Duration, tracer *trace.Tracer) (float64, time.Duration) {
	r := newDNERig(p, seed, mode, dne.SchedDWRR, []tenantSpec{{name: "t", weight: 1}})
	defer r.eng.Stop()
	stats := r.startEchoClients("t", clients, payload, nil)
	return stats.window(p.QPSetupTime+2*time.Millisecond, dur, tracer)
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
