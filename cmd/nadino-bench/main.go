// Command nadino-bench regenerates the paper's evaluation artifacts: every
// table and figure in §4 (and appendix A), printed as text tables with the
// same rows/series the paper reports.
//
// Usage:
//
//	nadino-bench                 # run everything at full fidelity
//	nadino-bench -run fig12      # one experiment
//	nadino-bench -run fig13,fig14 -quick
//	nadino-bench -run resilience # chaos-driven res-* suite
//	nadino-bench -run res-storm,res-recovery,res-tenant
//	nadino-bench -run resilience,clone-chaos   # groups expand inside a list; repeats run once
//	nadino-bench -run fabric     # multi-node gateway fabric: placement + failover
//	nadino-bench -run fabric-shard -trace   # per-hop gw.queue/gw.hop attribution
//	nadino-bench -run clone      # speculative clone/hedge tail-cutting sweep
//	nadino-bench -run clone-chaos -telemetry telemetry/   # spec.* family under a straggler storm
//	nadino-bench -parallel 0     # shard sweep points across all cores
//	nadino-bench -run fig06 -trace
//	nadino-bench -run resilience -telemetry telemetry/
//	nadino-bench -run fuzz -fuzz-seeds 200 -parallel 0   # simulation fuzz sweep
//	nadino-bench -run fuzz -seed 1234 -fuzz-seeds 1      # reproduce one scenario
//	nadino-bench -run scale              # million-client event-core sweep (1M clients @ 100 nodes)
//	nadino-bench -run scale -quick       # same ladder at toy sizes
//	nadino-bench -run fig15 -cpuprofile cpu.prof -memprofile mem.prof
//	nadino-bench -list
//
// Each sweep point is an independent simulation engine, so -parallel N
// shards points across N workers (0 = one per core) and merges results in
// input order: for a fixed seed the output is bitwise-identical to a
// sequential run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nadino/internal/experiments"
	"nadino/internal/telemetry"
	"nadino/internal/trace"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment IDs and groups: 'all' (paper artifacts), 'ablations', 'resilience' (res-*), 'fabric' (fabric-*), 'clone' (clone-*), 'everything'; an experiment selected twice runs once")
	quick := flag.Bool("quick", false, "shrink measurement windows and sweeps")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 1, "workers sharding each experiment's sweep points (0 = all cores, 1 = sequential); output is identical either way")
	list := flag.Bool("list", false, "list experiments and exit")
	doTrace := flag.Bool("trace", false, "record per-stage latency attribution (experiments that support it) and export a Chrome trace")
	traceOut := flag.String("trace-out", "nadino-trace.json", "Chrome trace-event output path (with -trace)")
	telemetryDir := flag.String("telemetry", "", "scrape labeled metrics during runs (experiments that support it) and export CSV/JSON/Prometheus/dashboard into this directory")
	fuzzSeeds := flag.Int("fuzz-seeds", 0, "scenarios for -run fuzz, generated from seeds seed..seed+n-1 (0 = mode default)")
	fuzzDefect := flag.String("fuzz-defect", "", "plant a named harness defect in every fuzz scenario (e.g. leak-buffer) to demo detection and shrinking")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file on exit")
	flag.Parse()

	if *list {
		for _, e := range append(experiments.AllWithAblations(), experiments.Fuzz()...) {
			fmt.Printf("  %-15s %s\n", e.ID, e.Title)
		}
		return
	}

	selected, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nadino-bench: %v (try -list)\n", err)
		os.Exit(2)
	}

	opts := experiments.Opts{Quick: *quick, Seed: *seed, Parallel: experiments.Parallelism(*parallel),
		FuzzSeeds: *fuzzSeeds, FuzzDefect: *fuzzDefect}
	var profiles []trace.Profile
	if *doTrace {
		opts.Trace = true
		opts.TraceSink = func(name string, tr *trace.Tracer) {
			profiles = append(profiles, trace.Profile{Name: name, Tracer: tr})
		}
	}
	var telemProfiles []telemetry.Profile
	if *telemetryDir != "" {
		opts.Telemetry = true
		opts.TelemetrySink = func(name string, sc *telemetry.Scraper) {
			telemProfiles = append(telemProfiles, telemetry.Profile{Name: name, Scraper: sc})
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nadino-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nadino-bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "CPU profile written to %s (go tool pprof %s)\n", *cpuProfile, *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nadino-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "nadino-bench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "heap profile written to %s (go tool pprof %s)\n", *memProfile, *memProfile)
		}()
	}
	for _, e := range selected {
		fmt.Printf("\n######## %s ########\n", e.Title)
		start := time.Now()
		profiled := len(profiles)
		for _, tb := range e.Run(opts) {
			tb.Print(os.Stdout)
		}
		for _, pr := range profiles[profiled:] {
			experiments.TraceTable(pr.Name, pr.Tracer.Report()).Print(os.Stdout)
		}
		fmt.Printf("  [%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *doTrace {
		if len(profiles) == 0 {
			fmt.Fprintln(os.Stderr, "nadino-bench: -trace set but no selected experiment records traces (try -run fig06)")
		} else {
			// When telemetry is also on, its series ride along in the same
			// trace file as Chrome counter timelines.
			var counters []trace.CounterTrack
			for _, tp := range telemProfiles {
				counters = append(counters, telemetry.CounterTracks(tp.Name+"/", tp.Scraper)...)
			}
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nadino-bench:", err)
				os.Exit(1)
			}
			if err := trace.WriteChrome(f, profiles, counters); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "nadino-bench:", err)
				os.Exit(1)
			}
			fmt.Printf("\nChrome trace (load in chrome://tracing or https://ui.perfetto.dev): %s\n", *traceOut)
		}
	}
	if *telemetryDir != "" {
		if len(telemProfiles) == 0 {
			fmt.Fprintln(os.Stderr, "nadino-bench: -telemetry set but no selected experiment records telemetry (try -run resilience)")
			return
		}
		written, err := telemetry.ExportDir(*telemetryDir, telemProfiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nadino-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("\nTelemetry (%d profiles) exported to %s:\n", len(telemProfiles), *telemetryDir)
		for _, p := range written {
			fmt.Printf("  %s\n", p)
		}
	}
}

// groups are the names -run expands to several experiments.
var groups = map[string]func() []experiments.Experiment{
	"all":        experiments.All,
	"everything": experiments.AllWithAblations,
	"ablations":  experiments.Ablations,
	"resilience": experiments.Resilience,
	"fabric":     experiments.Fabric,
	"clone":      experiments.Speculation,
}

// selectExperiments resolves -run's comma list in order: a group name
// expands in place, any other entry must be an experiment ID, and an
// experiment selected twice runs once, where it first appears.
func selectExperiments(run string) ([]experiments.Experiment, error) {
	var out []experiments.Experiment
	seen := make(map[string]bool)
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		var es []experiments.Experiment
		if g, ok := groups[name]; ok {
			es = g()
		} else if e, ok := experiments.Lookup(name); ok {
			es = []experiments.Experiment{e}
		} else {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		for _, e := range es {
			if !seen[e.ID] {
				seen[e.ID] = true
				out = append(out, e)
			}
		}
	}
	return out, nil
}
