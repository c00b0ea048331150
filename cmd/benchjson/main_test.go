package main

import (
	"bufio"
	"encoding/json"
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
