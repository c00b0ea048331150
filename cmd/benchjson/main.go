// Command benchjson converts `go test -bench -benchmem` text output on
// stdin into a JSON report on stdout, so benchmark results can be archived
// and diffed across commits (see `make bench`, which writes BENCH_sim.json).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/sim/ | benchjson > BENCH_sim.json
//	... | benchjson -telemetry telemetry/summary.json > BENCH_res.json
//
// -telemetry embeds a scraper summary document (the summary.json written by
// `nadino-bench -telemetry <dir>`) into the report, so the archived numbers
// carry the end-of-run gauge snapshot of the run that produced them.
//
// Readings of the host-speed reference, BenchmarkHostSpeed (this package's
// test), rescale the results between them: a result with a reading on
// each side has its ns/op multiplied by refNsPerOp over the mean of the
// two (normalize), so it reads as if the host ran at the reference speed.
// A result without a reading on both sides stays as measured.
//
// Repeated results of one benchmark (rounds, or `go test -count N`) fold
// into one: its ns/op is their median, with the minimum and maximum
// archived beside it, and its allocs/op and B/op are their maximum.
//
// -gate <archived.json> switches to regression-gate mode: instead of
// emitting a report, fresh results on stdin are compared against the
// archived report. A benchmark fails the gate if its (median) ns/op
// exceeds the archived median by more than -gate-threshold (default 25%),
// or if its allocs/op grew at all. Fresh benchmarks with no archived
// counterpart, and the reference itself, are reported but do not fail.
// Exit status 1 on any failure (see `make bench-gate`, wired into
// `make ci`).
//
// -e2e switches the input to the repository benchmark's output
// (`python3 bench/run.py --workload <w> ...`, any number of runs
// concatenated): each run's JSON result line belongs to the workload named
// in its "== <w> (timed run)" header. Repeated runs of one workload fold
// into one result: its modeled metrics (vrps, vlat_mean_us, vlat_p999_us,
// dp_cores — exact for a seed) must be identical across the runs, each
// host metric is the median of the runs, and the failed count is the
// largest. The folded results are archived (see `make bench-e2e`, which
// writes BENCH_e2e.json). With -gate as well, they are compared against
// that archive: a modeled metric must not change at all, and a host metric
// must not be worse than archived by more than its bound in BENCHMARK.json's
// end_to_end list, read from the working directory (see
// `make bench-e2e-gate`).
//
// -pair reads the paired end-to-end runs of `make bench-e2e-pair`: each
// run of bench/run.py follows a "== pair <seed> <side>" line, side being
// base or work. It prints every end-to-end metric of each pair, then for
// each metric both sides' median and quartiles, how many pairs the working
// tree won (by the metric's "better" direction in BENCHMARK.json), and
// whether the modeled metrics agreed on every pair.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line, normalized. Custom units reported via
// b.ReportMetric (e.g. the resilience benchmarks' recovery_ratio) land in
// Metrics keyed by their unit string.
type Result struct {
	Name       string  `json:"name"`
	Procs      int     `json:"procs"` // the -N GOMAXPROCS suffix
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// NsPerOpMin and NsPerOpMax bound the runs of a folded repeated
	// benchmark (fold); they are absent for a single run.
	NsPerOpMin  float64            `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64            `json:"ns_per_op_max,omitempty"`
	OpsPerSec   float64            `json:"ops_per_sec"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the archived document. Telemetry, when present, is the verbatim
// summary.json from a telemetry export (per-profile end-of-run gauges).
type Report struct {
	Goos      string          `json:"goos,omitempty"`
	Goarch    string          `json:"goarch,omitempty"`
	Pkg       string          `json:"pkg,omitempty"`
	CPU       string          `json:"cpu,omitempty"`
	Results   []Result        `json:"results"`
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
}

// parseLine parses one "BenchmarkX-N  iters  ns/op [B/op allocs/op]" line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	r := Result{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(fields[0], "-"); i > 0 {
		if p, err := strconv.Atoi(fields[0][i+1:]); err == nil {
			r.Name, r.Procs = fields[0][:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			if v > 0 {
				r.OpsPerSec = 1e9 / v
			}
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[fields[i+1]] = v
		}
	}
	return r, r.NsPerOp > 0
}

// refName is the host-speed reference benchmark (hostspeed_test.go).
const refName = "BenchmarkHostSpeed"

// refNsPerOp is the reference's ns/op at the reference host speed, the
// unit normalized results are expressed in: its median reading on the
// 2-vCPU Xeon VM the archived BENCH_sim.json was measured on. Its value
// only fixes the unit; every result is scaled against the same constant.
const refNsPerOp = 4200

// normalize rescales, in place, each result that has a reference reading
// before and after it in rs (input order) by refNsPerOp over the mean of
// the nearest two, and returns rs.
func normalize(rs []Result) []Result {
	before := -1.0
	for i := range rs {
		if rs[i].Name == refName {
			before = rs[i].NsPerOp
			continue
		}
		if before < 0 {
			continue
		}
		for _, r := range rs[i+1:] {
			if r.Name == refName {
				rs[i].NsPerOp *= 2 * refNsPerOp / (before + r.NsPerOp)
				rs[i].OpsPerSec = 1e9 / rs[i].NsPerOp
				break
			}
		}
	}
	return rs
}

// median returns the median of vs (the mean of the middle two for an even
// count); it reorders vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// groupBy splits items into groups of one key, in order of first
// appearance.
func groupBy[T any](items []T, key func(T) string) [][]T {
	idx := make(map[string]int)
	var out [][]T
	for _, it := range items {
		i, ok := idx[key(it)]
		if !ok {
			i = len(out)
			idx[key(it)] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], it)
	}
	return out
}

// fold merges repeated results of one benchmark name into one, in order of
// first appearance: ns/op and each custom metric become their median (with
// the ns/op minimum and maximum kept), iterations their sum, and B/op and
// allocs/op their maximum, so any run that allocated more shows.
func fold(rs []Result) []Result {
	var out []Result
	for _, g := range groupBy(rs, func(r Result) string { return r.Name }) {
		r := g[0]
		if len(g) > 1 {
			ns := make([]float64, len(g))
			r.Iterations = 0
			for j, x := range g {
				ns[j] = x.NsPerOp
				r.Iterations += x.Iterations
				r.BytesPerOp = max(r.BytesPerOp, x.BytesPerOp)
				r.AllocsPerOp = max(r.AllocsPerOp, x.AllocsPerOp)
			}
			r.NsPerOp = median(ns) // sorts ns
			r.NsPerOpMin, r.NsPerOpMax = ns[0], ns[len(ns)-1]
			r.OpsPerSec = 1e9 / r.NsPerOp
			if r.Metrics != nil {
				m := make(map[string]float64, len(r.Metrics))
				for k := range r.Metrics {
					vs := make([]float64, len(g))
					for j, x := range g {
						vs[j] = x.Metrics[k]
					}
					m[k] = median(vs)
				}
				r.Metrics = m
			}
		}
		out = append(out, r)
	}
	return out
}

// gate compares fresh results against an archived report and returns the
// number of regressions, printing one verdict line per fresh benchmark.
func gate(fresh []Result, archivedPath string, threshold float64) int {
	var archived Report
	if !readJSON(archivedPath, &archived) {
		return 1
	}
	base := make(map[string]Result, len(archived.Results))
	for _, r := range archived.Results {
		base[r.Name] = r
	}
	failures := 0
	for _, r := range fresh {
		b, ok := base[r.Name]
		if r.Name == refName {
			fmt.Printf("ref   %-40s %12.1f ns/op vs %12.1f archived (host speed, not gated)\n", r.Name, r.NsPerOp, b.NsPerOp)
			continue
		}
		if !ok {
			fmt.Printf("NEW   %-40s %12.1f ns/op (not archived, not gated)\n", r.Name, r.NsPerOp)
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		switch {
		case ratio > 1+threshold:
			failures++
			fmt.Printf("FAIL  %-40s %12.1f ns/op vs %12.1f archived (%+.1f%%, limit +%.0f%%)\n",
				r.Name, r.NsPerOp, b.NsPerOp, 100*(ratio-1), 100*threshold)
		case r.AllocsPerOp > b.AllocsPerOp:
			failures++
			fmt.Printf("FAIL  %-40s %d allocs/op vs %d archived\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
		default:
			fmt.Printf("ok    %-40s %12.1f ns/op vs %12.1f archived (%+.1f%%), %d allocs/op\n",
				r.Name, r.NsPerOp, b.NsPerOp, 100*(ratio-1), r.AllocsPerOp)
		}
	}
	if len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: gate saw no benchmark results on stdin")
		return 1
	}
	return failures
}

// E2EMetric is one metric of a benchmark result line.
type E2EMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// E2EResult is one workload's result line from the repository benchmark.
type E2EResult struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]E2EMetric `json:"metrics"`
}

// E2EReport is the archived end-to-end document (BENCH_e2e.json).
type E2EReport struct {
	Results []E2EResult `json:"results"`
}

// modeledMetrics are the benchmark's virtual-time results. They are exact
// for a seed, so the gate allows no change at all.
var modeledMetrics = map[string]bool{"vrps": true, "vlat_mean_us": true, "vlat_p999_us": true, "dp_cores": true}

// parseE2E reads concatenated benchmark output: a "== <workload> (timed
// run)" header names the workload of the JSON result line that follows.
func parseE2E(sc *bufio.Scanner) ([]E2EResult, error) {
	var out []E2EResult
	workload := ""
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		switch {
		case strings.HasPrefix(line, "== ") && strings.Contains(line, " (timed run)"):
			workload = strings.TrimPrefix(line[:strings.Index(line, " (timed run)")], "== ")
		case strings.HasPrefix(line, "{"):
			if workload == "" {
				return nil, fmt.Errorf("result line before any workload header: %s", line)
			}
			r := E2EResult{Workload: workload}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: %v", workload, err)
			}
			out = append(out, r)
			workload = ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return out, nil
}

// e2eBound is one end_to_end entry of BENCHMARK.json.
type e2eBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// gateE2E compares fresh benchmark results against the archive and returns
// the number of failures, printing one verdict line per workload metric.
// Every archived workload must be present, correct, and fail no more
// requests than archived.
func gateE2E(fresh []E2EResult, archivedPath, boundsPath string) int {
	var archived E2EReport
	var bench struct {
		EndToEnd []e2eBound `json:"end_to_end"`
	}
	if !readJSON(archivedPath, &archived) || !readJSON(boundsPath, &bench) {
		return 1
	}
	byName := make(map[string]E2EResult, len(fresh))
	for _, r := range fresh {
		byName[r.Workload] = r
	}
	failures := 0
	for _, a := range archived.Results {
		f, ok := byName[a.Workload]
		switch {
		case !ok:
			failures++
			fmt.Printf("FAIL  %-16s not run\n", a.Workload)
			continue
		case !f.Correct || f.Failed > a.Failed:
			failures++
			fmt.Printf("FAIL  %-16s correct=%v, %d of %d requests failed (archived %d)\n",
				a.Workload, f.Correct, f.Failed, f.Attempted, a.Failed)
		}
		for _, b := range bench.EndToEnd {
			av := a.Metrics[b.Name].Value
			fm, measured := f.Metrics[b.Name]
			fv := fm.Value
			verdict := "ok  "
			switch {
			case !measured:
				verdict = "FAIL"
			case modeledMetrics[b.Name]:
				if fv != av {
					verdict = "FAIL"
				}
			case b.Better == "higher" && fv < av*(1-b.Bound),
				b.Better != "higher" && fv > av*(1+b.Bound):
				verdict = "FAIL"
			}
			if verdict == "FAIL" {
				failures++
			}
			limit := "exact"
			if !modeledMetrics[b.Name] {
				limit = fmt.Sprintf("bound %.0f%%", 100*b.Bound)
			}
			fmt.Printf("%s  %-16s %-16s %14.6g vs %14.6g archived (%s)\n", verdict, a.Workload, b.Name, fv, av, limit)
		}
	}
	return failures
}

// foldE2E merges repeated runs of one workload into one result, in order
// of first appearance. The modeled metrics are exact for a seed, so runs
// that disagree on one are an error; each host metric becomes its median,
// failed the largest count, and correct holds only if every run was.
func foldE2E(rs []E2EResult) ([]E2EResult, error) {
	var out []E2EResult
	for _, g := range groupBy(rs, func(r E2EResult) string { return r.Workload }) {
		r := g[0]
		if len(g) > 1 {
			m := make(map[string]E2EMetric, len(r.Metrics))
			for name, first := range r.Metrics {
				vs := make([]float64, len(g))
				for j, x := range g {
					xm, ok := x.Metrics[name]
					if !ok {
						return nil, fmt.Errorf("%s: metric %s missing from a run", r.Workload, name)
					}
					if modeledMetrics[name] && xm.Value != first.Value {
						return nil, fmt.Errorf("%s: modeled metric %s differs across runs: %v vs %v",
							r.Workload, name, xm.Value, first.Value)
					}
					vs[j] = xm.Value
				}
				m[name] = E2EMetric{Value: median(vs), Unit: first.Unit}
			}
			for _, x := range g[1:] {
				r.Correct = r.Correct && x.Correct
				r.Failed = max(r.Failed, x.Failed)
			}
			r.Metrics = m
		}
		out = append(out, r)
	}
	return out, nil
}

// pairRun is one seed's pair of runs: the BASE side and the working tree.
type pairRun struct {
	Seed       int
	Base, Work *E2EResult
}

// parsePairs reads `make bench-e2e-pair` output: a "== pair <seed>
// <side>" line names the side of the JSON result line that follows.
// Every pair must have both sides.
func parsePairs(sc *bufio.Scanner) ([]pairRun, error) {
	var out []pairRun
	var side *(*E2EResult)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== pair "):
			f := strings.Fields(line)
			seed, err := strconv.Atoi(f[len(f)-2])
			if len(f) != 4 || err != nil {
				return nil, fmt.Errorf("malformed pair header: %s", line)
			}
			if len(out) == 0 || out[len(out)-1].Seed != seed {
				out = append(out, pairRun{Seed: seed})
			}
			switch p := &out[len(out)-1]; f[3] {
			case "base":
				side = &p.Base
			case "work":
				side = &p.Work
			default:
				return nil, fmt.Errorf("pair %d: unknown side %q", seed, f[3])
			}
		case strings.HasPrefix(line, "{"):
			if side == nil {
				return nil, fmt.Errorf("result line before any pair header: %s", line)
			}
			r := new(E2EResult)
			if err := json.Unmarshal([]byte(line), r); err != nil {
				return nil, err
			}
			*side, side = r, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, p := range out {
		if p.Base == nil || p.Work == nil {
			return nil, fmt.Errorf("pair %d is missing a side", p.Seed)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no pairs on stdin")
	}
	return out, nil
}

// spread is one side's median and quartiles over the pairs.
type spread struct{ Q1, Median, Q3 float64 }

// quartiles returns the median and quartiles of vs, linearly interpolated
// between order statistics; it sorts vs.
func quartiles(vs []float64) spread {
	sort.Float64s(vs)
	at := func(q float64) float64 {
		pos := q * float64(len(vs)-1)
		i := int(pos)
		if i+1 >= len(vs) {
			return vs[i]
		}
		return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
	}
	return spread{at(0.25), at(0.5), at(0.75)}
}

// pairSummary folds one metric over the pairs.
type pairSummary struct {
	Name       string
	Base, Work spread
	// Wins counts pairs where the working tree was strictly better; Ties
	// those where the sides were equal.
	Wins, Ties, Pairs int
	// Missing reports a pair where a side lacks the metric.
	Missing bool
}

// foldPairs summarizes each end-to-end metric over the pairs.
func foldPairs(pairs []pairRun, bounds []e2eBound) []pairSummary {
	out := make([]pairSummary, 0, len(bounds))
	for _, b := range bounds {
		s := pairSummary{Name: b.Name, Pairs: len(pairs)}
		base := make([]float64, 0, len(pairs))
		work := make([]float64, 0, len(pairs))
		for _, p := range pairs {
			bm, okB := p.Base.Metrics[b.Name]
			wm, okW := p.Work.Metrics[b.Name]
			if !okB || !okW {
				s.Missing = true
				continue
			}
			base, work = append(base, bm.Value), append(work, wm.Value)
			switch {
			case wm.Value == bm.Value:
				s.Ties++
			case (b.Better == "higher") == (wm.Value > bm.Value):
				s.Wins++
			}
		}
		if len(base) > 0 {
			s.Base, s.Work = quartiles(base), quartiles(work)
		}
		out = append(out, s)
	}
	return out
}

// printPairs writes the per-pair table and the per-metric summary, and
// reports whether every modeled metric agreed on every pair and every run
// was correct with no failed request.
func printPairs(w io.Writer, pairs []pairRun, bounds []e2eBound) bool {
	ok := true
	fmt.Fprintf(w, "%-6s %-16s %16s %16s %9s\n", "seed", "metric", "base", "work", "delta")
	for _, p := range pairs {
		for _, b := range bounds {
			bv, wv := p.Base.Metrics[b.Name].Value, p.Work.Metrics[b.Name].Value
			fmt.Fprintf(w, "%-6d %-16s %16.6g %16.6g %+8.2f%%\n", p.Seed, b.Name, bv, wv, 100*(wv/bv-1))
		}
		for _, r := range []*E2EResult{p.Base, p.Work} {
			if !r.Correct || r.Failed > 0 {
				ok = false
			}
		}
		fmt.Fprintf(w, "%-6d %-16s %16s %16s\n", p.Seed, "correct/failed",
			fmt.Sprintf("%v/%d", p.Base.Correct, p.Base.Failed), fmt.Sprintf("%v/%d", p.Work.Correct, p.Work.Failed))
	}
	fmt.Fprintf(w, "\n%d pairs, working tree vs BASE: median [q1, q3] per side\n", len(pairs))
	fmt.Fprintf(w, "%-16s %38s %38s %9s  %s\n", "metric", "base", "work", "median Δ", "verdict")
	for _, s := range foldPairs(pairs, bounds) {
		side := func(x spread) string {
			return fmt.Sprintf("%.6g [%.6g, %.6g]", x.Median, x.Q1, x.Q3)
		}
		verdict := fmt.Sprintf("work won %d of %d (%d tied)", s.Wins, s.Pairs, s.Ties)
		if modeledMetrics[s.Name] {
			verdict = fmt.Sprintf("modeled: agreed on %d of %d", s.Ties, s.Pairs)
			ok = ok && s.Ties == s.Pairs
		}
		if s.Missing {
			verdict, ok = "missing from a run", false
		}
		fmt.Fprintf(w, "%-16s %38s %38s %+8.2f%%  %s\n", s.Name, side(s.Base), side(s.Work),
			100*(s.Work.Median/s.Base.Median-1), verdict)
	}
	if ok {
		fmt.Fprintln(w, "modeled metrics agreed on every pair; every run correct, no failed request")
	} else {
		fmt.Fprintln(w, "NOT CLEAN: a modeled metric disagreed, a metric is missing, or a run failed requests")
	}
	return ok
}

// readJSON decodes the JSON file at path into v, reporting failure on
// stderr.
func readJSON(path string, v any) bool {
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		return false
	}
	return true
}

func main() {
	telemetryPath := flag.String("telemetry", "", "telemetry summary.json to embed in the report")
	gatePath := flag.String("gate", "", "archived report to gate fresh results against (no JSON output)")
	gateThreshold := flag.Float64("gate-threshold", 0.25, "allowed fractional ns/op regression in -gate mode")
	e2e := flag.Bool("e2e", false, "read repository benchmark output (bench/run.py) instead of go test -bench output")
	pair := flag.Bool("pair", false, "summarize make bench-e2e-pair output (paired bench/run.py runs)")
	flag.Parse()

	if *pair {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		var bench struct {
			EndToEnd []e2eBound `json:"end_to_end"`
		}
		pairs, err := parsePairs(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !readJSON("BENCHMARK.json", &bench) || !printPairs(os.Stdout, pairs, bench.EndToEnd) {
			os.Exit(1)
		}
		return
	}

	if *e2e {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		results, err := parseE2E(sc)
		if err == nil {
			results, err = foldE2E(results)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if *gatePath != "" {
			if gateE2E(results, *gatePath, "BENCHMARK.json") > 0 {
				os.Exit(1)
			}
			return
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(E2EReport{Results: results}); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	rep := Report{Results: []Result{}}
	if *telemetryPath != "" {
		raw, err := os.ReadFile(*telemetryPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !json.Valid(raw) {
			fmt.Fprintf(os.Stderr, "benchjson: %s is not valid JSON\n", *telemetryPath)
			os.Exit(1)
		}
		rep.Telemetry = json.RawMessage(raw)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		default:
			if r, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
		// Echo the raw line so the human-readable output still shows.
		fmt.Fprintln(os.Stderr, line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Results = fold(normalize(rep.Results))
	if *gatePath != "" {
		if gate(rep.Results, *gatePath, *gateThreshold) > 0 {
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
