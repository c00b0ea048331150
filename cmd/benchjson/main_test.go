package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeArchive(t *testing.T, results []Result) string {
	t.Helper()
	raw, err := json.Marshal(Report{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseLine pins the bench-output grammar including custom metrics.
func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkProcSpawn-8   	 2000000	       512.0 ns/op	       0 B/op	       0 allocs/op")
	if !ok || r.Name != "BenchmarkProcSpawn" || r.Procs != 8 || r.NsPerOp != 512 || r.AllocsPerOp != 0 {
		t.Fatalf("parseLine = %+v ok=%v", r, ok)
	}
	r, ok = parseLine("BenchmarkScaleSweep/nodes=100-8  1  8584381491 ns/op  1379763 events/sec")
	if !ok || r.Metrics["events/sec"] != 1379763 {
		t.Fatalf("parseLine custom metric = %+v ok=%v", r, ok)
	}
	if _, ok := parseLine("ok  	nadino/internal/sim	15.2s"); ok {
		t.Fatal("parseLine accepted a non-benchmark line")
	}
}

// TestGate covers the three verdicts: within threshold, ns/op regression,
// and allocs/op growth; new benchmarks pass ungated.
func TestGate(t *testing.T) {
	archive := writeArchive(t, []Result{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: 2},
	})
	cases := []struct {
		name  string
		fresh []Result
		fails int
	}{
		{"within", []Result{{Name: "BenchmarkA", NsPerOp: 120}}, 0},
		{"regressed", []Result{{Name: "BenchmarkA", NsPerOp: 130}}, 1},
		{"alloc-growth", []Result{{Name: "BenchmarkB", NsPerOp: 90, AllocsPerOp: 3}}, 1},
		{"new-bench", []Result{{Name: "BenchmarkC", NsPerOp: 999}}, 0},
		{"reference", []Result{{Name: refName, NsPerOp: 99999}}, 0},
		{"mixed", []Result{
			{Name: "BenchmarkA", NsPerOp: 200},
			{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: 2},
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := gate(tc.fresh, archive, 0.25); got != tc.fails {
				t.Fatalf("gate = %d failures, want %d", got, tc.fails)
			}
		})
	}
	if got := gate(nil, archive, 0.25); got == 0 {
		t.Fatal("gate with empty input must fail")
	}
}

// e2eOutput is two concatenated benchmark runs as bench/run.py prints them.
const e2eOutput = `== ingress-echo (timed run): window 1s, modeled digest 707183cc4137b81e
   9 replicas (seeds 1..9); modeled metrics pool seeds 1..9, 359706 latency samples
wall_ns_per_req                        14238.3176 ns
{"correct":true,"attempted":100,"failed":0,"metrics":{"vrps":{"value":39965.5,"unit":"1/s"},"wall_ns_per_req":{"value":1000,"unit":"ns"}}}
== scale-open (timed run): window 500ms, modeled digest 0
{"correct":true,"attempted":50,"failed":0,"metrics":{"vrps":{"value":200,"unit":"1/s"},"wall_ns_per_req":{"value":5000,"unit":"ns"}}}
`

// TestParseE2E pins that each result line is keyed by the workload of the
// header before it.
func TestParseE2E(t *testing.T) {
	rs, err := parseE2E(bufio.NewScanner(strings.NewReader(e2eOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Workload != "ingress-echo" || rs[1].Workload != "scale-open" {
		t.Fatalf("parseE2E = %+v", rs)
	}
	if rs[0].Metrics["vrps"].Value != 39965.5 || rs[1].Attempted != 50 || !rs[1].Correct {
		t.Fatalf("parseE2E lost fields: %+v", rs)
	}
	if _, err := parseE2E(bufio.NewScanner(strings.NewReader("no results\n"))); err == nil {
		t.Fatal("parseE2E accepted output without result lines")
	}
	if _, err := parseE2E(bufio.NewScanner(strings.NewReader(`{"correct":true}` + "\n"))); err == nil {
		t.Fatal("parseE2E accepted a result line without a workload header")
	}
}

// TestGateE2E covers the end-to-end verdicts: modeled metrics must match
// exactly, host metrics may drift within their bound, and a missing,
// incorrect or failing workload fails.
func TestGateE2E(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end": [
		{"name": "wall_ns_per_req", "better": "lower", "bound": 0.25},
		{"name": "vrps", "better": "higher", "bound": 0.03}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	result := func(w string, vrps, wall float64) E2EResult {
		return E2EResult{Workload: w, Correct: true, Attempted: 10, Metrics: map[string]E2EMetric{
			"vrps": {Value: vrps}, "wall_ns_per_req": {Value: wall}}}
	}
	raw, err := json.Marshal(E2EReport{Results: []E2EResult{result("a", 100, 1000), result("b", 50, 2000)}})
	if err != nil {
		t.Fatal(err)
	}
	archive := filepath.Join(dir, "BENCH_e2e.json")
	if err := os.WriteFile(archive, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	failing := result("b", 50, 2000)
	failing.Failed = 1
	noWall := result("b", 50, 2000)
	delete(noWall.Metrics, "wall_ns_per_req")
	cases := []struct {
		name  string
		fresh []E2EResult
		fails int
	}{
		{"same", []E2EResult{result("a", 100, 1000), result("b", 50, 2000)}, 0},
		{"host-within-bound", []E2EResult{result("a", 100, 1240), result("b", 50, 1000)}, 0},
		{"host-regressed", []E2EResult{result("a", 100, 1260), result("b", 50, 2000)}, 1},
		{"modeled-moved", []E2EResult{result("a", 100.0001, 1000), result("b", 50, 2000)}, 1},
		{"workload-missing", []E2EResult{result("a", 100, 1000)}, 1},
		{"requests-failed", []E2EResult{result("a", 100, 1000), failing}, 1},
		{"metric-missing", []E2EResult{result("a", 100, 1000), noWall}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := gateE2E(tc.fresh, archive, bounds); got != tc.fails {
				t.Fatalf("gateE2E = %d failures, want %d", got, tc.fails)
			}
		})
	}
}

// TestFold pins the repeated-run fold: ns/op and custom metrics become
// their median with the ns/op range kept, allocs/op the largest, and a
// single run passes through unchanged.
func TestFold(t *testing.T) {
	rs := fold([]Result{
		{Name: "BenchmarkA", Iterations: 10, NsPerOp: 130, AllocsPerOp: 0},
		{Name: "BenchmarkB", Iterations: 5, NsPerOp: 7},
		{Name: "BenchmarkA", Iterations: 10, NsPerOp: 100, AllocsPerOp: 1, Metrics: map[string]float64{"events/sec": 3}},
		{Name: "BenchmarkA", Iterations: 10, NsPerOp: 110, AllocsPerOp: 0, Metrics: map[string]float64{"events/sec": 1}},
	})
	if len(rs) != 2 || rs[0].Name != "BenchmarkA" || rs[1].Name != "BenchmarkB" {
		t.Fatalf("fold = %+v, want A then B", rs)
	}
	a := rs[0]
	if a.NsPerOp != 110 || a.NsPerOpMin != 100 || a.NsPerOpMax != 130 || a.Iterations != 30 || a.AllocsPerOp != 1 {
		t.Fatalf("folded A = %+v, want median 110 in [100, 130], 30 iterations, 1 alloc/op", a)
	}
	if rs[1].NsPerOp != 7 || rs[1].NsPerOpMin != 0 || rs[1].NsPerOpMax != 0 {
		t.Fatalf("single run B = %+v, want it unchanged", rs[1])
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", got)
	}
}

// TestNormalize pins the host-speed rescaling: a result between two
// reference readings is scaled by refNsPerOp over their mean, and one
// without a reading on both sides stays as measured.
func TestNormalize(t *testing.T) {
	rs := normalize([]Result{
		{Name: "BenchmarkEarly", NsPerOp: 10},
		{Name: refName, NsPerOp: refNsPerOp / 2},
		{Name: "BenchmarkA", NsPerOp: 100},
		{Name: refName, NsPerOp: refNsPerOp / 2},
		{Name: "BenchmarkB", NsPerOp: 50},
		{Name: "BenchmarkC", NsPerOp: 30},
		{Name: refName, NsPerOp: 3 * refNsPerOp / 2},
		{Name: "BenchmarkLate", NsPerOp: 7},
	})
	want := []float64{10, refNsPerOp / 2, 200, refNsPerOp / 2, 50, 30, 3 * refNsPerOp / 2, 7}
	for i, r := range rs {
		if r.NsPerOp != want[i] {
			t.Errorf("%s: ns/op %v, want %v", r.Name, r.NsPerOp, want[i])
		}
	}
	if rs[2].OpsPerSec != 1e9/200 {
		t.Errorf("BenchmarkA: ops/sec %v, want %v", rs[2].OpsPerSec, 1e9/200)
	}
}

// TestFoldE2E pins the end-to-end fold: host metrics become their median,
// a failing run's count survives, and runs that disagree on a modeled
// metric are an error.
func TestFoldE2E(t *testing.T) {
	run := func(wall, vrps float64, failed int) E2EResult {
		return E2EResult{Workload: "w", Correct: true, Attempted: 10, Failed: failed, Metrics: map[string]E2EMetric{
			"vrps": {Value: vrps, Unit: "1/s"}, "wall_ns_per_req": {Value: wall, Unit: "ns"}}}
	}
	rs, err := foldE2E([]E2EResult{run(900, 100, 0), run(1200, 100, 2), run(1000, 100, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Metrics["wall_ns_per_req"].Value != 1000 || rs[0].Metrics["vrps"].Value != 100 || rs[0].Failed != 2 {
		t.Fatalf("foldE2E = %+v, want median wall 1000, vrps 100, 2 failed", rs)
	}
	if _, err := foldE2E([]E2EResult{run(900, 100, 0), run(900, 101, 0)}); err == nil {
		t.Fatal("foldE2E accepted runs whose modeled metrics differ")
	}
}

// TestPairs pins the paired end-to-end fold: the parser attributes each
// result line to the side its header names, each side gets its median and
// interpolated quartiles, wins follow the metric's better direction, and a
// modeled metric agrees only when every pair ties.
func TestPairs(t *testing.T) {
	line := func(wall, vrps float64) string {
		return fmt.Sprintf(`{"correct": true, "attempted": 10, "failed": 0, "metrics": {"wall_ns_per_req": {"value": %g, "unit": "ns"}, "vrps": {"value": %g, "unit": "1/s"}}}`, wall, vrps)
	}
	in := strings.Join([]string{
		"== pair 1001 base", "== boutique-closed (timed run): window 300ms", line(100, 50),
		"== pair 1001 work", line(90, 50),
		"== pair 1002 work", line(95, 50),
		"== pair 1002 base", line(110, 50),
		"== pair 1003 base", line(120, 50),
		"== pair 1003 work", line(125, 51),
	}, "\n")
	pairs, err := parsePairs(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 || pairs[1].Seed != 1002 || pairs[1].Base.Metrics["wall_ns_per_req"].Value != 110 {
		t.Fatalf("parsePairs = %+v", pairs)
	}
	bounds := []e2eBound{{Name: "wall_ns_per_req", Better: "lower"}, {Name: "vrps", Better: "higher"}}
	s := foldPairs(pairs, bounds)
	wall, vrps := s[0], s[1]
	if wall.Wins != 2 || wall.Ties != 0 || wall.Base != (spread{105, 110, 115}) || wall.Work != (spread{92.5, 95, 110}) {
		t.Fatalf("wall summary = %+v, want 2 wins, base 110 [105, 115], work 95 [92.5, 110]", wall)
	}
	if vrps.Ties != 2 || vrps.Wins != 1 {
		t.Fatalf("vrps summary = %+v, want 2 ties and 1 win", vrps)
	}
	var out strings.Builder
	if printPairs(&out, pairs, bounds) {
		t.Fatalf("printPairs called a modeled metric that moved clean:\n%s", out.String())
	}
	if printPairs(&out, pairs[:2], bounds) != true {
		t.Fatalf("printPairs flagged pairs whose modeled metrics agree:\n%s", out.String())
	}
	if _, err := parsePairs(bufio.NewScanner(strings.NewReader("== pair 1001 base\n" + line(1, 1)))); err == nil {
		t.Fatal("parsePairs accepted a pair without its work side")
	}
}
