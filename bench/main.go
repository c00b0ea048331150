// Command bench is the repository benchmark. It drives core.Cluster through
// four workloads and reports two kinds of result side by side: what the
// simulator costs in host time, and what the modeled system does in
// virtual time. See README.md for the metrics and workloads.
//
//	python3 bench/run.py --workload fabric-mt --seed 1 --seconds 20 --trace 0
//	cd bench && go run . -seed 1             # every workload, timed run
//	cd bench && go run . -seed 1 -trace 1    # traced run: per-layer metrics
//	cd bench && go run . -seed 1 -sets 2     # do two full runs agree?
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

const (
	// defaultSeconds matches run_seconds in BENCHMARK.json.
	defaultSeconds  = 20
	defaultTraceDir = ".bench_build/trace"
	// runCap stops adding replicas once their minimum count is met, so a
	// run ends well inside three minutes on a slow host.
	runCap = 120 * time.Second
	// tracedMinReplicas and minProfileSamples size the traced run.
	tracedMinReplicas = 3
	minProfileSamples = 2000
	// hostSumTolerance bounds how far the host layer times may sum from the
	// process CPU time per request.
	hostSumTolerance = 0.05
	// reconcileTolerance bounds stage.reconcile_err.
	reconcileTolerance = 0.05
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// plan is how one workload is run.
type plan struct {
	seed     int64
	seconds  time.Duration // keep adding replicas until this much wall time has passed
	traceDir string        // non-empty selects the traced run
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all of them)")
	seed := fs.Int64("seed", 1, "seed of replica 0; replica i uses seed+i")
	seconds := fs.Int("seconds", defaultSeconds, "wall seconds to keep adding replicas for, per workload")
	traceArg := fs.String("trace", "0", `"1" (or an output directory) selects the traced run, which prints per-layer metrics and writes spans and CPU profiles to `+defaultTraceDir)
	sets := fs.Int("sets", 1, "run everything this many times and compare the sets' medians with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wls := workloads
	if *name != "" {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		wls = []*workload{wl}
	}
	p := plan{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	switch *traceArg {
	case "0", "":
	case "1":
		p.traceDir = defaultTraceDir
	default:
		p.traceDir = *traceArg
	}
	if *sets > 1 {
		return agreement(wls, p, *sets, stdout, stderr)
	}
	code := 0
	for _, wl := range wls {
		res, err := runWorkload(wl, p)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", wl.name, err)
			fmt.Fprintln(stdout, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
			return 1
		}
		res.print(stdout)
		if len(res.problems) > 0 {
			code = 1
		}
	}
	return code
}

// result is one workload's run.
type result struct {
	wl        *workload
	kind      string // "timed run" or "traced run"
	defs      []metricDef
	metrics   map[string]float64
	replicas  int
	attempted int // window requests over every replica
	failed    int // of those, unanswered after the drain
	digest    uint64
	notes     []string
	problems  []string // failed correctness checks
}

func runWorkload(wl *workload, p plan) (*result, error) {
	if p.traceDir != "" {
		return runTraced(wl, p)
	}
	start := time.Now()
	var reps []*replicaResult
	sp := newSpeedTrack()
	for i := 0; len(reps) < modeledReplicas || (time.Since(start) < p.seconds && time.Since(start) < runCap); i++ {
		rr, err := runReplica(wl, p.seed+int64(i), nil, sp)
		if err != nil {
			return nil, err
		}
		if len(reps) >= modeledReplicas {
			rr.lat = nil // only the first replicas' samples are pooled
		}
		reps = append(reps, rr)
	}
	res := &result{wl: wl, kind: "timed run", defs: endToEnd, metrics: summarize(wl, reps), replicas: len(reps), digest: reps[0].digest}
	raw := make([]float64, len(reps))
	for i, rr := range reps {
		res.attempted += rr.issued
		res.failed += rr.issued - rr.done
		raw[i] = wallPerReq(rr)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d replicas (seeds %d..%d); modeled metrics pool seeds %d..%d, %d latency samples",
			len(reps), p.seed, p.seed+int64(len(reps)-1), p.seed, p.seed+modeledReplicas-1, countSamples(reps[:modeledReplicas])),
		fmt.Sprintf("host speed probe median %.1f ms (reference %v); unnormalized wall_ns_per_req %.1f",
			median(sp.probes), probeRef, median(raw)))
	res.validate()
	return res, nil
}

// wallPerReq is a replica's raw host wall time per window request, in ns.
func wallPerReq(rr *replicaResult) float64 {
	return float64(rr.wall.Nanoseconds()) / float64(rr.issued)
}

func countSamples(reps []*replicaResult) int {
	n := 0
	for _, rr := range reps {
		n += len(rr.lat)
	}
	return n
}

// runTraced runs traced replicas until the profiles hold enough samples.
// The first ones are paired with an untraced twin of the same seed: the
// pairs give trace_overhead and prove tracing leaves the model untouched.
func runTraced(wl *workload, p plan) (*result, error) {
	ts, err := newTraceSession(wl, p.traceDir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var plain, traced []*replicaResult
	var samples int64
	for i := 0; ; i++ {
		enough := len(traced) >= tracedMinReplicas
		if enough && (time.Since(start) >= runCap ||
			(samples >= minProfileSamples && time.Since(start) >= p.seconds)) {
			break
		}
		seed := p.seed + int64(i)
		if !enough {
			u, err := runReplica(wl, seed, nil, nil)
			if err != nil {
				return nil, err
			}
			plain = append(plain, u)
		}
		t, err := runReplica(wl, seed, ts, nil)
		if err != nil {
			return nil, err
		}
		if !enough && plain[i].digest != t.digest {
			return nil, fmt.Errorf("seed %d: tracing changed the modeled digest (%016x untraced, %016x traced)", seed, plain[i].digest, t.digest)
		}
		traced = append(traced, t)
		samples += t.profSamples
	}
	path, err := ts.write()
	if err != nil {
		return nil, err
	}
	res := &result{wl: wl, kind: "traced run", defs: perLayer, metrics: map[string]float64{}, replicas: len(traced), digest: traced[0].digest}
	for _, d := range perLayer {
		var sum float64
		for _, t := range traced {
			sum += t.layers[d.name]
		}
		res.metrics[d.name] = sum / float64(len(traced))
	}
	// Each pair ran back to back, so host drift mostly cancels in its ratio.
	overhead := make([]float64, len(plain))
	for i, u := range plain {
		overhead[i] = wallPerReq(traced[i])/wallPerReq(u) - 1
	}
	var wallMean, cpuMean float64
	for _, t := range traced {
		wallMean += wallPerReq(t) / float64(len(traced))
		cpuMean += float64(t.cpu.Nanoseconds()) / float64(t.issued) / float64(len(traced))
		res.attempted += t.issued
		res.failed += t.issued - t.done
	}
	res.metrics["trace_overhead"] = median(overhead)
	var hostSum float64
	for _, l := range hostLayers {
		hostSum += res.metrics["host."+l+".ns_per_req"]
	}
	// The layers must account for the CPU the process used. CPU time is not
	// wall time on two cores: parallel GC adds to it, and waits for a thread
	// to wake during a handoff subtract from it.
	res.notes = append(res.notes,
		fmt.Sprintf("%d traced + %d untraced replicas (seeds %d..%d), %d profile samples", len(traced), len(plain), p.seed, p.seed+int64(len(traced)-1), samples),
		fmt.Sprintf("host layers sum to %.0f ns/req against %.0f ns/req process CPU (%+.1f%%) and %.0f ns/req traced wall",
			hostSum, cpuMean, 100*(hostSum/cpuMean-1), wallMean),
		"spans and profiles: "+path)
	if samples < minProfileSamples {
		res.notes = append(res.notes, fmt.Sprintf("warning: only %d profile samples (want %d)", samples, minProfileSamples))
	}
	if gap := math.Abs(hostSum/cpuMean - 1); gap > hostSumTolerance {
		res.problems = append(res.problems, fmt.Sprintf("host layers sum %.1f%% away from the process CPU time", 100*gap))
	}
	if e := res.metrics["stage.reconcile_err"]; e > reconcileTolerance {
		res.problems = append(res.problems, fmt.Sprintf("stage.reconcile_err %.3f > %.2f", e, reconcileTolerance))
	}
	res.validate()
	return res, nil
}

// validate checks that every metric is present and finite.
func (res *result) validate() {
	for _, d := range res.defs {
		v, ok := res.metrics[d.name]
		switch {
		case !ok:
			res.problems = append(res.problems, d.name+" missing")
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.problems = append(res.problems, fmt.Sprintf("%s is %v", d.name, v))
			res.metrics[d.name] = 0
		}
	}
}

// print writes the human-readable block, then the result as one JSON line.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s): window %v, modeled digest %016x\n", res.wl.name, res.kind, res.wl.window, res.digest)
	for _, n := range res.notes {
		fmt.Fprintln(w, "   "+n)
	}
	for _, d := range res.defs {
		fmt.Fprintf(w, "%-32s %16.4f %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintln(w, "CHECK FAILED: "+p)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range res.defs {
		out.Metrics[d.name] = jsonMetric{Value: res.metrics[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and plain strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

// agreement runs every workload n times and compares each set's medians
// with the first: host metrics must agree within their bound, modeled ones
// exactly.
func agreement(wls []*workload, p plan, n int, stdout, stderr io.Writer) int {
	if p.traceDir != "" {
		fmt.Fprintln(stderr, "-sets compares timed runs; drop -trace")
		return 2
	}
	sets := make([][]*result, n)
	for s := range sets {
		for _, wl := range wls {
			res, err := runWorkload(wl, p)
			if err == nil && len(res.problems) > 0 {
				err = errors.New(strings.Join(res.problems, "; "))
			}
			if err != nil {
				fmt.Fprintf(stderr, "set %d, %s: %v\n", s+1, wl.name, err)
				return 1
			}
			fmt.Fprintf(stderr, "set %d, %s: %d replicas\n", s+1, wl.name, res.replicas)
			sets[s] = append(sets[s], res)
		}
	}
	code := 0
	for wi, wl := range wls {
		fmt.Fprintf(stdout, "== %s\n%-16s", wl.name, "metric")
		for s := range sets {
			fmt.Fprintf(stdout, " %16s", fmt.Sprintf("set %d", s+1))
		}
		fmt.Fprintf(stdout, " %8s %7s\n", "gap", "bound")
		for _, d := range endToEnd {
			base := sets[0][wi].metrics[d.name]
			fmt.Fprintf(stdout, "%-16s", d.name)
			var worst float64
			same := true
			for s := range sets {
				v := sets[s][wi].metrics[d.name]
				fmt.Fprintf(stdout, " %16.4f", v)
				worst = math.Max(worst, math.Abs(v/base-1))
				same = same && v == base
			}
			verdict := ""
			switch {
			case d.modeled && !same:
				verdict, code = "  MODELED VALUE DIFFERS", 1
			case worst > d.bound:
				verdict, code = "  OUT OF BOUND", 1
			}
			fmt.Fprintf(stdout, " %7.2f%% %6.0f%%%s\n", 100*worst, 100*d.bound, verdict)
		}
	}
	return code
}
