package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"nadino/internal/core"
	"nadino/internal/telemetry"
	"nadino/internal/trace"
)

// hostLayers are the simulator's layers as host CPU time sees them: this
// repository's internal packages (sim split by file), the Go runtime, and
// the benchmark itself.
var hostLayers = []string{
	"sim.proc", "sim.event", "sim.processor", "sim.resources",
	"core", "ingress", "transport", "dpu", "ipc", "dne", "rdma", "mempool", "params",
	"gateway", "fabric", "speculate", "metrics", "telemetry", "trace",
	"flightrec", "ring", "runtime.sched", "runtime.gc", "bench",
}

// stages are the program tracer's tiling stages reported per request.
var stages = []string{
	trace.StageNetClient, trace.StageIngressQueue, trace.StageIngressRecv, trace.StageIngressResp,
	trace.StageComchH2D, trace.StageComchD2H, trace.StageDNESched, trace.StageDNETx, trace.StageDNERx,
	trace.StageRDMA, trace.StageRDMACQ, trace.StageFnQueue, trace.StageFnExec, trace.StageGwQueue,
}

// slice is the virtual time one traced RunUntil covers; gauges are sampled
// between slices.
const slice = 10 * time.Millisecond

// layerOf attributes one sample to a host layer: GC work wherever it runs,
// else the innermost frame of this repository (an internal package, or the
// benchmark), else the Go scheduler.
func layerOf(frames []frame) string {
	for _, f := range frames {
		if isGCFrame(f.fn) {
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f.fn, "nadino/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if pkg == "sim" {
				return simLayer(f.file)
			}
			return pkg
		}
		for _, p := range []string{"main.", "nadino/bench.", "runtime/pprof."} {
			if strings.HasPrefix(f.fn, p) {
				return "bench"
			}
		}
	}
	return "runtime.sched"
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBufFlush", "runtime.GC"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// simLayer splits the event core by source file.
func simLayer(file string) string {
	switch filepath.Base(file) {
	case "process.go":
		return "sim.proc"
	case "processor.go":
		return "sim.processor"
	case "resources.go":
		return "sim.resources"
	default: // engine.go, wheel.go
		return "sim.event"
	}
}

// attribute sums a profile's CPU time per host layer. Packages outside
// hostLayers are reported as an error, so the layer list stays complete.
func attribute(p *profile) (map[string]int64, error) {
	known := map[string]bool{}
	for _, l := range hostLayers {
		known[l] = true
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		l := layerOf(s.frames)
		if !known[l] {
			return nil, fmt.Errorf("profile sample in unlisted layer %q", l)
		}
		out[l] += s.cpuNanos
	}
	return out, nil
}

// counters are cumulative readings taken at both ends of a traced window.
type counters struct {
	fired                     uint64
	dneTx, dneDrops, dneRetry uint64
	rdmaOps, icmHit, icmMiss  uint64
	coldStarts, specFnKills   uint64
	flightrec                 uint64
	gcCPU, totalCPU, gcCycles float64
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounters(r *replica) counters {
	k := counters{
		fired:       r.eng.Fired(),
		coldStarts:  r.c.ColdStarts(),
		specFnKills: r.c.SpecFnKills(),
		flightrec:   r.rec.Total(),
	}
	for _, node := range r.cfg.Nodes {
		e := r.c.Engine(node)
		tx, _, noRoute, noPort, _ := e.Stats()
		retried, budget := e.RetryStats()
		k.dneTx += tx
		k.dneDrops += noRoute + noPort + budget
		k.dneRetry += retried
		rn := e.RNIC()
		sends, writes, reads, atomics, _ := rn.Stats()
		k.rdmaOps += sends + writes + reads + atomics
		k.icmHit += rn.CacheHits()
		k.icmMiss += rn.CacheMisses()
	}
	rtmetrics.Read(runtimeSamples)
	k.gcCPU = runtimeSamples[0].Value.Float64()
	k.totalCPU = runtimeSamples[1].Value.Float64()
	k.gcCycles = float64(runtimeSamples[2].Value.Uint64())
	return k
}

// layerProbe instruments one traced replica: the program's tracer, a telemetry
// scrape covering exactly the window, gauges sampled between slices, a
// CPU profile of the window, and benchmark-side spans.
type layerProbe struct {
	ts     *traceSession
	r      *replica
	row    int // the replica's row in the span log
	tracer *trace.Tracer
	sc     *telemetry.Scraper
	prof   bytes.Buffer

	before, after counters
	wall          time.Duration
	cpu           time.Duration // process CPU time while profiling
	procs         int

	submitWall                     time.Duration
	submits                        int
	pendingMax, queueMax, schedMax int
}

func (p *layerProbe) begin() error {
	r := p.r
	p.tracer = trace.New(nil)
	p.tracer.SetLimit(0) // trace every request of the window
	r.c.SetTracer(p.tracer)
	reg := telemetry.NewRegistry()
	r.c.Instrument(reg)
	p.sc = reg.Scrape(r.eng, r.winEnd-r.winStart)
	p.before = readCounters(r)
	// The default 100 Hz. Faster rates lose samples on a kernel ticking at
	// 250 Hz: at 250 Hz the layers summed 12 % short of the process CPU
	// time, at 100 Hz within 1 %.
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return err
	}
	p.cpu = -processCPU()
	return nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *layerProbe) runWindow() {
	r := p.r
	for t := r.winStart; t < r.winEnd; {
		t = min(t+slice, r.winEnd)
		s := time.Now()
		r.eng.RunUntil(t)
		p.ts.hostSpan("slice", p.row, s, time.Now(), 0)
		p.pendingMax = max(p.pendingMax, r.eng.Pending())
		p.queueMax = max(p.queueMax, r.c.Gateway().QueueDepth())
		for _, node := range r.cfg.Nodes {
			p.schedMax = max(p.schedMax, r.c.Engine(node).SchedPending())
		}
	}
}

func (p *layerProbe) submitted(start time.Time, d time.Duration, id uint64) {
	p.submitWall += d
	p.submits++
	p.ts.hostSpan("submit", p.row, start, start.Add(d), id)
}

func (p *layerProbe) request(id uint64, stamp, now time.Duration) {
	p.ts.spans = append(p.ts.spans, span{name: "request", virtual: true, row: p.row, start: stamp, dur: now - stamp, id: id})
}

// end closes the window: it runs before the drain.
func (p *layerProbe) end(wall time.Duration) {
	p.cpu += processCPU()
	pprof.StopCPUProfile()
	p.wall = wall
	p.r.c.SetTracer(nil) // requests already traced keep recording through the drain
	p.sc.Stop()
	p.after = readCounters(p.r)
	p.procs = p.r.eng.Procs()
}

// finish computes the replica's per-layer readings after the drain.
func (p *layerProbe) finish() (map[string]float64, int64, error) {
	r := p.r
	prof, err := parseProfile(p.prof.Bytes())
	if err != nil {
		return nil, 0, err
	}
	file := filepath.Join(p.ts.dir, fmt.Sprintf("%s-%d.pprof", p.ts.wl.name, p.row))
	if err := os.WriteFile(file, p.prof.Bytes(), 0o644); err != nil {
		return nil, 0, err
	}
	byLayer, err := attribute(prof)
	if err != nil {
		return nil, 0, err
	}
	samples, _ := prof.totals()

	reqs := float64(r.issued)
	secs := (r.winEnd - r.winStart).Seconds()
	b, a := p.before, p.after
	scraped := map[string][]float64{}
	for _, s := range p.sc.Series() {
		if n := len(s.Points); n > 0 {
			name, _, _ := strings.Cut(s.Name, "{")
			scraped[name] = append(scraped[name], s.Points[n-1].V)
		}
	}
	sum := func(name string) float64 {
		var v float64
		for _, x := range scraped[name] {
			v += x
		}
		return v
	}
	mean := func(name string) float64 {
		if n := len(scraped[name]); n > 0 {
			return sum(name) / float64(n)
		}
		return 0
	}
	// Rate series are per second over the window; count = rate x window.
	count := func(name string) float64 { return sum(name) * secs }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	events := float64(a.fired - b.fired)

	m := map[string]float64{}
	for _, l := range hostLayers {
		m["host."+l+".ns_per_req"] = float64(byLayer[l]) / reqs
	}
	m["sim.events_per_req"] = events / reqs
	m["sim.run_ns_per_event"] = ratio(float64(p.wall.Nanoseconds()), events)
	m["sim.pending_max"] = float64(p.pendingMax)
	m["sim.procs"] = float64(p.procs)
	m["ingress.submit_ns"] = ratio(float64(p.submitWall.Nanoseconds()), float64(p.submits))
	m["ingress.dropped"] = count("ingress.dropped")
	m["ingress.queue_depth_max"] = float64(p.queueMax)
	m["dpu.core_util"] = mean("dpu.core_util")
	m["dpu.dma_util"] = mean("dpu.dma_util")
	m["dpu.dma_ops_per_req"] = count("dpu.dma_ops") / reqs
	m["dne.worker_util"] = mean("dne.worker_util")
	m["dne.keeper_util"] = mean("dne.keeper_util")
	m["dne.tx_per_req"] = float64(a.dneTx-b.dneTx) / reqs
	m["dne.drops"] = float64(a.dneDrops - b.dneDrops)
	m["dne.retries"] = float64(a.dneRetry - b.dneRetry)
	m["dne.sched_pending_max"] = float64(p.schedMax)
	m["rdma.ops_per_req"] = float64(a.rdmaOps-b.rdmaOps) / reqs
	m["rdma.icm_hit_rate"] = ratio(float64(a.icmHit-b.icmHit), float64(a.icmHit-b.icmHit+a.icmMiss-b.icmMiss))
	m["rdma.rnr_retries"] = count("rdma.rnr_retries")
	m["rdma.pipe_util"] = mean("rdma.pipe_util")
	m["rdma.active_qps"] = sum("rdma.active_qps")
	m["gw.fwd_per_req"] = count("gw.forwarded_msgs") / reqs
	m["gw.dropped"] = count("gw.dropped")
	m["gw.transit"] = count("gw.transit")
	m["gw.core_util"] = mean("gw.core_util")
	m["fabric.bytes_per_req"] = count("fabric.bytes") / reqs
	m["fabric.drops"] = count("fabric.drops")
	m["spec.arms_per_req"] = count("spec.arms") / reqs
	m["spec.cancels_per_req"] = count("spec.cancels") / reqs
	m["spec.hedge_win_ratio"] = ratio(count("spec.win_hedge"), count("spec.hedges"))
	m["core.cold_starts"] = float64(a.coldStarts - b.coldStarts)
	m["core.spec_fn_kills"] = float64(a.specFnKills - b.specFnKills)
	m["flightrec.events_per_req"] = float64(a.flightrec-b.flightrec) / reqs
	m["runtime.gc_cpu_frac"] = ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU)
	m["runtime.gc_cycles_per_kreq"] = 1000 * (a.gcCycles - b.gcCycles) / reqs

	rep := p.tracer.Report()
	perReq := map[string]time.Duration{}
	for _, st := range rep.Stages {
		perReq[st.Stage] = st.PerRequest(rep.Requests)
	}
	for _, s := range stages {
		m["stage."+s+".us_per_req"] = float64(perReq[s].Nanoseconds()) / 1e3
	}
	m["stage.reconcile_err"] = reconcileErr(p.tracer, asyncChains(r.cfg))
	return m, samples, nil
}

// asyncChains names the chains with a parallel fan-out.
func asyncChains(cfg core.Config) map[string]bool {
	var fans func([]core.Call) bool
	fans = func(calls []core.Call) bool {
		for _, c := range calls {
			if c.Async || fans(c.Calls) {
				return true
			}
		}
		return false
	}
	out := map[string]bool{}
	for _, ch := range cfg.Chains {
		out[ch.Name] = fans(ch.Calls)
	}
	return out
}

// reconcileErr compares the tiling-stage sum with end-to-end latency over
// the traced requests whose stages must tile it: no parallel fan-out and a
// single speculation arm, since overlapping branches or arms count twice.
func reconcileErr(tr *trace.Tracer, async map[string]bool) float64 {
	var stageSum, e2e time.Duration
	for _, req := range tr.Requests() {
		if !req.Finished() || async[strings.TrimPrefix(req.Name, "chain/")] {
			continue
		}
		arms := 0
		var sum time.Duration
		for _, sp := range req.Spans()[1:] {
			if sp.Stage == trace.StageSpecClone {
				arms++
			}
			if !sp.Detail && !sp.Open() {
				sum += sp.Duration()
			}
		}
		if arms > 1 {
			continue
		}
		stageSum += sum
		e2e += req.Root().Duration()
	}
	if e2e == 0 {
		return 0
	}
	return math.Abs(float64(stageSum-e2e)) / float64(e2e)
}
