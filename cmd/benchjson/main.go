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
// -gate <archived.json> switches to regression-gate mode: instead of
// emitting a report, fresh results on stdin are compared against the
// archived report. A benchmark fails the gate if its ns/op exceeds the
// archived value by more than -gate-threshold (default 25%), or if its
// allocs/op grew at all. Fresh benchmarks with no archived counterpart are
// reported but do not fail. Exit status 1 on any failure (see
// `make bench-gate`, wired into `make ci`).
//
// -e2e switches the input to the repository benchmark's output
// (`python3 bench/run.py --workload <w> ...`, any number of runs
// concatenated): each run's JSON result line is archived under the workload
// named in its "== <w> (timed run)" header (see `make bench-e2e`, which
// writes BENCH_e2e.json). With -gate as well, fresh runs are compared
// against that archive: a modeled metric (vrps, vlat_mean_us,
// vlat_p999_us, dp_cores — exact for a seed) must not change at all, and a
// host metric must not be worse than archived by more than its bound in
// BENCHMARK.json's end_to_end list, read from the working directory (see
// `make bench-e2e-gate`).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line, normalized. Custom units reported via
// b.ReportMetric (e.g. the resilience benchmarks' recovery_ratio) land in
// Metrics keyed by their unit string.
type Result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs"` // the -N GOMAXPROCS suffix
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
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
	flag.Parse()

	if *e2e {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		results, err := parseE2E(sc)
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
