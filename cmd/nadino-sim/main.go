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
	"math/rand"
	"os"
	"time"

	"nadino/internal/core"
	"nadino/internal/experiments"
	"nadino/internal/ingress"
	"nadino/internal/sim"
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
	// openClients switches to event-driven open-loop clients: proc-free
	// timer state machines (two events per request, no goroutine each), so
	// -open-clients 100000 is cheap where 100k closed-loop Procs are not.
	// openThink is their mean exponential think time.
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
	if r.replay != nil {
		// Replay mode: drive the recorded arrival schedule verbatim, shifted
		// to begin at the start of the measured window (the trace's t=0 would
		// otherwise land in warmup and never be measured). The replay is
		// read-only and each replica's Start spawns its own process, so
		// replicas can share one parsed trace.
		_, hook := r.replay.Shifted(warm).StartSpec(c.Eng)
		n := 0
		hook(func(ch string, clone int, hedge time.Duration) {
			n++
			// Recorded speculation overrides ride each arrival: clone/hedge
			// are zero for plain trace lines, and SubmitChainSpec falls back
			// to the cluster policy in that case.
			c.SubmitChainSpec(ch, n, clone, hedge, nil)
		})
		fmt.Fprintf(w, "workload  : replay of %d arrivals (%d requests over %v)\n",
			len(r.replay.Arrivals), r.replay.Total(), r.replay.Duration())
	} else if r.traceRPS > 0 {
		// Trace mode: Poisson arrivals with diurnal modulation, spread
		// over every chain by Zipf popularity.
		var names []string
		for _, ch := range cfg.Chains {
			names = append(names, ch.Name)
		}
		gen := &workload.TraceGen{
			Chains:           names,
			ZipfS:            r.zipf,
			BaseRPS:          r.traceRPS,
			DiurnalAmplitude: r.diurnal,
			Period:           r.period,
		}
		_, hook := gen.Start(c.Eng)
		n := 0
		hook(func(ch string) {
			n++
			c.SubmitChain(ch, n, nil)
		})
		fmt.Fprintf(w, "workload  : %v\n", gen)
	} else if r.openClients > 0 {
		// Open-loop mode: each client is a timer-driven state machine with one
		// bound issue callback — the scale-sweep client model. The response
		// callback schedules the next issue after an exponential think time,
		// and arrivals are staggered across one think interval so the run does
		// not start with a synchronized herd.
		type openClient struct {
			rng     *rand.Rand
			issueFn func()
		}
		ocs := make([]openClient, r.openClients)
		for i := range ocs {
			oc := &ocs[i]
			id := i
			oc.rng = rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
			oc.issueFn = func() {
				c.SubmitChain(r.chain, id, func(resp ingress.Response) {
					think := oc.rng.ExpFloat64()
					if think > 8 {
						think = 8
					}
					c.Eng.At(c.Eng.Now()+time.Duration(think*float64(r.openThink)), oc.issueFn)
				})
			}
			c.Eng.At(time.Duration(oc.rng.Int63n(int64(r.openThink))), oc.issueFn)
		}
		fmt.Fprintf(w, "workload  : %d open-loop clients, mean think %v (event-driven, proc-free)\n",
			r.openClients, r.openThink)
	} else {
		for i := 0; i < r.clients; i++ {
			id := i
			c.Eng.Spawn("client", func(pr *sim.Proc) {
				c.WaitReady(pr)
				respQ := sim.NewQueue[ingress.Response](c.Eng, 0)
				for {
					c.SubmitChain(r.chain, id, func(resp ingress.Response) { respQ.TryPut(resp) })
					respQ.Get(pr)
				}
			})
		}
	}
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
	if r.replay != nil {
		fmt.Fprintf(w, "chain     : %s (measured; replayed trace drives all its chains), %v window\n", r.chain, r.dur)
	} else if r.traceRPS > 0 {
		fmt.Fprintf(w, "chain     : %s (measured; all chains driven), %v window\n", r.chain, r.dur)
	} else if r.openClients > 0 {
		fmt.Fprintf(w, "chain     : %s, %d open-loop clients, %v window\n", r.chain, r.openClients, r.dur)
	} else {
		fmt.Fprintf(w, "chain     : %s, %d clients, %v window\n", r.chain, r.clients, r.dur)
	}
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
	if *chain == "" {
		if len(cfg.Chains) == 0 {
			fmt.Fprintln(os.Stderr, "nadino-sim: config has no chains")
			os.Exit(1)
		}
		*chain = cfg.Chains[0].Name
	}
	var replay *workload.Replay
	if *traceFile != "" {
		if *traceRPS > 0 {
			fmt.Fprintln(os.Stderr, "nadino-sim: -trace-file and -trace-rps are mutually exclusive")
			os.Exit(2)
		}
		tf, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nadino-sim:", err)
			os.Exit(1)
		}
		replay, err = workload.ParseTrace(tf)
		tf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nadino-sim:", err)
			os.Exit(1)
		}
		known := make(map[string]bool, len(cfg.Chains))
		for _, ch := range cfg.Chains {
			known[ch.Name] = true
		}
		for _, name := range replay.Chains() {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "nadino-sim: trace drives chain %q, not in the config\n", name)
				os.Exit(1)
			}
		}
	}

	r := runOpts{
		chain:       *chain,
		clients:     *clients,
		dur:         *dur,
		traceRPS:    *traceRPS,
		zipf:        *zipf,
		diurnal:     *diurnal,
		period:      *period,
		replay:      replay,
		traceOut:    *traceOut,
		telemetry:   *telemetryDir != "",
		openClients: *openClients,
		openThink:   *openThink,
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
