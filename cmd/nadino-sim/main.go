// Command nadino-sim runs an arbitrary cluster topology described by a JSON
// config file (see configs/) on any of the supported data planes, drives a
// chain with closed-loop clients, and reports throughput, latency and
// data-plane CPU/DPU usage.
//
// Usage:
//
//	nadino-sim -config configs/sample-cluster.json -chain main -clients 40
//	nadino-sim -config cluster.json -replicas 8 -parallel 0
//	nadino-sim -config cluster.json -trace-file arrivals.txt   # replay a recorded trace
//	nadino-sim -config cluster.json -open-clients 50000        # proc-free open-loop load
//	nadino-sim -template        # print a starter config
//
// -replicas N runs N independent copies of the cluster with seeds
// seed..seed+N-1 and prints their reports in replica order; -parallel M
// shards the replicas across M workers (0 = one per core). Each replica is
// its own simulation engine, so the reports are identical whether the
// replicas run sequentially or concurrently.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"nadino/internal/core"
	"nadino/internal/experiments"
	"nadino/internal/ingress"
	"nadino/internal/telemetry"
	"nadino/internal/trace"
	"nadino/internal/workload"
)

const template = `{
  "system": "nadino-dne",
  "tenant": "demo",
  "nodes": ["node1", "node2"],
  "functions": [
    {"name": "front", "node": "node1", "service": "25us", "workers": 16},
    {"name": "back", "node": "node2", "service": "100us", "workers": 4,
     "max_scale": 3, "target_concurrency": 4}
  ],
  "chains": [
    {"name": "main", "entry": "front", "req_bytes": 512, "resp_bytes": 2048,
     "calls": [
       {"callee": "back", "req_bytes": 1024, "resp_bytes": 1024, "async": true},
       {"callee": "back", "req_bytes": 1024, "resp_bytes": 1024, "async": true}
     ]}
  ],
  "ingress_workers": 2,
  "seed": 1
}
`

// runOpts carries the per-run knobs from flags into runCluster.
type runOpts struct {
	chain     string
	clients   int
	dur       time.Duration
	traceRPS  float64
	zipf      float64
	diurnal   float64
	period    time.Duration
	replay    *workload.Replay
	traceOut  string
	telemetry bool
	// openClients switches to think-time users, each with its own random
	// stream; openThink is their mean exponential think time.
	openClients int
	openThink   time.Duration
}

// runCluster builds one cluster from cfg, drives it, and writes the report
// to w. It is safe to call concurrently for independent configs. When
// r.telemetry is set it returns the run's scraper for export.
func runCluster(cfg core.Config, r runOpts, w io.Writer) (*telemetry.Scraper, error) {
	c := core.NewCluster(cfg)
	defer c.Eng.Stop()
	hist, ok := c.ChainLatency[r.chain]
	if !ok {
		return nil, fmt.Errorf("unknown chain %q", r.chain)
	}
	var sc *telemetry.Scraper
	if r.telemetry {
		// Scrape the whole run (setup, warmup and the measured window) so
		// the dashboard shows the ramp; ~100 samples across the window.
		reg := telemetry.NewRegistry()
		c.Instrument(reg)
		sc = reg.Scrape(c.Eng, r.dur/100)
	}
	warm := c.P.QPSetupTime + 10*time.Millisecond
	d := &workload.Driver{Chains: []string{r.chain}}
	submit := workload.Submit(c.SubmitChainSpec)
	if r.replay != nil || r.traceRPS > 0 {
		// Open-loop arrivals carry client ids 1, 2, ... for RSS steering.
		submit = func(ch string, n, clone int, hedge time.Duration, reply func(ingress.Response)) {
			c.SubmitChainSpec(ch, n+1, clone, hedge, reply)
		}
	}
	var driven string // how the report's chain line describes the load
	switch {
	case r.replay != nil:
		// Replay mode: drive the recorded arrival schedule verbatim, shifted
		// to begin at the start of the measured window (the trace's t=0 would
		// otherwise land in warmup and never be measured). Recorded
		// speculation overrides ride each arrival: clone/hedge are zero for
		// plain trace lines, and SubmitChainSpec falls back to the cluster
		// policy in that case.
		d.Replay = r.replay.Shifted(warm)
		fmt.Fprintf(w, "workload  : replay of %d arrivals (%d requests over %v)\n",
			len(r.replay.Arrivals), r.replay.Total(), r.replay.Duration())
		driven = " (measured; replayed trace drives all its chains)"
	case r.traceRPS > 0:
		// Trace mode: Poisson arrivals with diurnal modulation, spread
		// over every chain by Zipf popularity.
		var names []string
		for _, ch := range cfg.Chains {
			names = append(names, ch.Name)
		}
		d.Trace = &workload.TraceGen{
			Chains:           names,
			ZipfS:            r.zipf,
			BaseRPS:          r.traceRPS,
			DiurnalAmplitude: r.diurnal,
			Period:           r.period,
		}
		fmt.Fprintf(w, "workload  : %v\n", d.Trace)
		driven = " (measured; all chains driven)"
	case r.openClients > 0:
		// Open-loop mode: think-time users, each with its own random
		// stream; the first requests are staggered uniformly across one
		// think interval so the run does not start with a synchronized herd,
		// then each reply is followed by an exponential think time.
		rngs := make([]*rand.Rand, r.openClients)
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
		}
		d.Clients = r.openClients
		d.Think = func(i, n int) time.Duration {
			if n == 0 {
				return time.Duration(rngs[i].Int63n(int64(r.openThink)))
			}
			return time.Duration(min(rngs[i].ExpFloat64(), 8) * float64(r.openThink))
		}
		fmt.Fprintf(w, "workload  : %d open-loop clients, mean think %v (event-driven, proc-free)\n",
			r.openClients, r.openThink)
		driven = fmt.Sprintf(", %d open-loop clients", r.openClients)
	default:
		d.Clients, d.Ready = r.clients, c.OnReady
		driven = fmt.Sprintf(", %d clients", r.clients)
	}
	d.Start(c.Eng, submit)
	var tracer *trace.Tracer
	c.Eng.RunUntil(warm)
	c.Completed.MarkWindow(c.Eng.Now())
	hist.Reset()
	if r.traceOut != "" {
		// Arm the tracer only for the measured window so the attribution
		// matches the reported steady-state latency.
		tracer = trace.New(nil)
		c.SetTracer(tracer)
	}
	c.Eng.RunUntil(warm + r.dur)
	elapsed := c.Eng.Now() - c.P.QPSetupTime

	net := c.NetCPUStats(elapsed)
	kind := "CPU"
	if net.OnDPU {
		kind = "DPU"
	}
	fmt.Fprintf(w, "system    : %v\n", cfg.System)
	fmt.Fprintf(w, "chain     : %s%s, %v window\n", r.chain, driven, r.dur)
	fmt.Fprintf(w, "throughput: %.0f RPS\n", c.Completed.WindowRate(c.Eng.Now()))
	fmt.Fprintf(w, "latency   : mean %v  p50 %v  p99 %v\n", hist.Mean(), hist.P50(), hist.P99())
	fmt.Fprintf(w, "dataplane : %.0f pinned %s cores (%.2f useful) + %.2f host-core share\n",
		net.PinnedCores, kind, net.PinnedUseful, net.FnCores)
	for _, fs := range cfg.Functions {
		if fs.MaxScale > 1 {
			g := c.Group(fs.Name)
			ups, downs := g.ScaleEvents()
			fmt.Fprintf(w, "autoscale : %s at %d instance(s) (%d up / %d down events)\n",
				fs.Name, g.Instances(), ups, downs)
		}
	}
	if n := c.ColdStarts(); n > 0 {
		fmt.Fprintf(w, "coldstarts: %d\n", n)
	}
	if n := c.CrossTenantCopies(); n > 0 {
		fmt.Fprintf(w, "x-tenant  : %d sidecar copies\n", n)
	}
	if tracer != nil {
		experiments.TraceTable(fmt.Sprintf("%v chain %s", cfg.System, r.chain), tracer.Report()).Print(w)
		f, err := os.Create(r.traceOut)
		if err != nil {
			return sc, err
		}
		name := fmt.Sprintf("%v", cfg.System)
		// Telemetry counters ride along in the same trace file when both
		// flags are set.
		var counters []trace.CounterTrack
		if sc != nil {
			counters = telemetry.CounterTracks(name+"/", sc)
		}
		if err := trace.WriteChrome(f, []trace.Profile{{Name: name, Tracer: tracer}}, counters); err == nil {
			err = f.Close()
		} else {
			f.Close()
			return sc, err
		}
		fmt.Fprintf(w, "trace     : %s (chrome://tracing / ui.perfetto.dev)\n", r.traceOut)
	}
	return sc, nil
}

// checkLoad rejects load flags a run cannot honour; replaying reports
// whether -trace-file is set.
func checkLoad(r runOpts, replaying bool) error {
	switch {
	case r.dur <= 0:
		return fmt.Errorf("-dur %v must be positive", r.dur)
	case r.telemetry && r.dur < 100:
		return fmt.Errorf("-telemetry scrapes every -dur/100, so -dur %v must be at least 100ns", r.dur)
	case r.openClients < 0:
		return fmt.Errorf("-open-clients %d must not be negative", r.openClients)
	case r.openThink <= 0:
		return fmt.Errorf("-open-think %v must be positive", r.openThink)
	case !(r.traceRPS >= 0) || math.IsInf(r.traceRPS, 1):
		return fmt.Errorf("-trace-rps %v must be a finite rate >= 0", r.traceRPS)
	case math.IsNaN(r.zipf) || math.IsInf(r.zipf, 0):
		return fmt.Errorf("-zipf %v must be finite", r.zipf)
	case !(r.diurnal >= 0 && r.diurnal < 1):
		return fmt.Errorf("-diurnal %v must be in [0,1)", r.diurnal)
	case r.period <= 0:
		return fmt.Errorf("-period %v must be positive", r.period)
	case replaying && (r.traceRPS > 0 || r.openClients > 0) || r.traceRPS > 0 && r.openClients > 0:
		return fmt.Errorf("-trace-file, -trace-rps and -open-clients are mutually exclusive")
	}
	return nil
}

func main() {
	cfgPath := flag.String("config", "", "cluster config file (JSON)")
	chain := flag.String("chain", "", "chain to drive (default: the config's first)")
	clients := flag.Int("clients", 20, "closed-loop clients")
	openClients := flag.Int("open-clients", 0, "event-driven open-loop clients (proc-free; scales to 100k+) instead of closed-loop clients")
	openThink := flag.Duration("open-think", 10*time.Millisecond, "open-loop mode: mean exponential think time between a response and the next request")
	dur := flag.Duration("dur", 300*time.Millisecond, "measurement window (simulated)")
	replicas := flag.Int("replicas", 1, "independent replica runs with seeds seed..seed+N-1")
	parallel := flag.Int("parallel", 1, "workers running replicas concurrently (0 = all cores)")
	traceRPS := flag.Float64("trace-rps", 0, "drive ALL chains open-loop at this aggregate rate instead of closed-loop clients")
	traceFile := flag.String("trace-file", "", "replay a recorded arrival trace (one `t_us,chain[,count[,clone[,hedge_us]]]` line per arrival) instead of synthetic load")
	traceOut := flag.String("trace", "", "record per-stage latency attribution after warmup and write a Chrome trace to this file")
	telemetryDir := flag.String("telemetry", "", "scrape labeled metrics during the run and export CSV/JSON/Prometheus/dashboard into this directory")
	zipf := flag.Float64("zipf", 1.0, "trace mode: chain popularity skew")
	diurnal := flag.Float64("diurnal", 0.5, "trace mode: diurnal amplitude [0,1)")
	period := flag.Duration("period", 200*time.Millisecond, "trace mode: diurnal period")
	printTemplate := flag.Bool("template", false, "print a starter config and exit")
	flag.Parse()

	if *printTemplate {
		fmt.Print(template)
		return
	}
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "nadino-sim: -config is required (try -template)")
		os.Exit(2)
	}
	if *replicas < 1 {
		fmt.Fprintln(os.Stderr, "nadino-sim: -replicas must be >= 1")
		os.Exit(2)
	}
	if *replicas > 1 && *traceOut != "" {
		fmt.Fprintln(os.Stderr, "nadino-sim: -trace requires -replicas 1 (one Chrome trace per run)")
		os.Exit(2)
	}
	r := runOpts{
		chain:       *chain,
		clients:     *clients,
		dur:         *dur,
		traceRPS:    *traceRPS,
		zipf:        *zipf,
		diurnal:     *diurnal,
		period:      *period,
		traceOut:    *traceOut,
		telemetry:   *telemetryDir != "",
		openClients: *openClients,
		openThink:   *openThink,
	}
	if err := checkLoad(r, *traceFile != ""); err != nil {
		fmt.Fprintln(os.Stderr, "nadino-sim:", err)
		os.Exit(2)
	}
	f, err := os.Open(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nadino-sim:", err)
		os.Exit(1)
	}
	cfg, err := core.LoadConfig(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nadino-sim:", err)
		os.Exit(1)
	}
	if r.chain == "" {
		if len(cfg.Chains) == 0 {
			fmt.Fprintln(os.Stderr, "nadino-sim: config has no chains")
			os.Exit(1)
		}
		r.chain = cfg.Chains[0].Name
	}
	if *traceFile != "" {
		tf, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nadino-sim:", err)
			os.Exit(1)
		}
		r.replay, err = workload.ParseTrace(tf)
		tf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nadino-sim:", err)
			os.Exit(1)
		}
		known := make(map[string]bool, len(cfg.Chains))
		for _, ch := range cfg.Chains {
			known[ch.Name] = true
		}
		for _, name := range r.replay.Chains() {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "nadino-sim: trace drives chain %q, not in the config\n", name)
				os.Exit(1)
			}
		}
	}
	// Each replica is an independent cluster with its own seed; reports are
	// buffered and printed in replica order so concurrent runs read the
	// same as sequential ones.
	outs := make([]bytes.Buffer, *replicas)
	errs := make([]error, *replicas)
	scs := make([]*telemetry.Scraper, *replicas)
	experiments.ForEach(experiments.Parallelism(*parallel), *replicas, func(i int) {
		rcfg := cfg
		rcfg.Seed = cfg.Seed + int64(i)
		scs[i], errs[i] = runCluster(rcfg, r, &outs[i])
	})
	for i := range outs {
		if *replicas > 1 {
			fmt.Printf("---- replica %d (seed %d) ----\n", i, cfg.Seed+int64(i))
		}
		os.Stdout.Write(outs[i].Bytes())
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "nadino-sim:", errs[i])
			os.Exit(1)
		}
	}
	if *telemetryDir != "" {
		// Profiles are exported in replica order (index-addressed slots), so
		// the directory contents are identical for any -parallel setting.
		var profiles []telemetry.Profile
		for i, sc := range scs {
			if sc == nil {
				continue
			}
			name := fmt.Sprintf("%v", cfg.System)
			if *replicas > 1 {
				name = fmt.Sprintf("%v-replica%d", cfg.System, i)
			}
			profiles = append(profiles, telemetry.Profile{Name: name, Scraper: sc})
		}
		written, err := telemetry.ExportDir(*telemetryDir, profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nadino-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry : %d profile(s) exported to %s (%d files)\n", len(profiles), *telemetryDir, len(written))
	}
}
