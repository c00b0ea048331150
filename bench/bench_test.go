package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"nadino/internal/sim"
)

// tiny returns a copy of the named workload with a short window, so the
// correctness fence runs every workload in a few seconds.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w := *wl
	w.window = 20 * time.Millisecond
	return &w
}

// TestReplicaFence runs every workload through setup, warmup, window and
// drain: conservation, on-time arrivals and positive latencies are checked
// by runReplica itself, and no request may fail.
func TestReplicaFence(t *testing.T) {
	for _, wl := range workloads {
		rr, err := runReplica(tiny(t, wl.name), 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rr.issued == 0 || rr.done != rr.issued {
			t.Errorf("%s: %d of %d window requests answered", wl.name, rr.done, rr.issued)
		}
	}
}

// TestModeledDigestRepeats: the same seed gives the same modeled digest,
// and tracing leaves it untouched.
func TestModeledDigestRepeats(t *testing.T) {
	for _, name := range []string{"boutique-closed", "fabric-mt"} {
		wl := tiny(t, name)
		a, err := runReplica(wl, 7, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runReplica(wl, 7, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := newTraceSession(wl, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := runReplica(wl, 7, ts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest || a.digest != c.digest {
			t.Errorf("%s: digests %016x, %016x, traced %016x", name, a.digest, b.digest, c.digest)
		}
		other, err := runReplica(wl, 8, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if other.digest == a.digest {
			t.Errorf("%s: seeds 7 and 8 share digest %016x", name, a.digest)
		}
	}
}

// TestTracedReplica checks the traced replica's per-layer readings: every
// metric present, stages reconciling with end-to-end latency, and spans
// and a profile written.
func TestTracedReplica(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"boutique-closed", "ingress-echo"} {
		wl := tiny(t, name)
		ts, err := newTraceSession(wl, dir)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := runReplica(wl, 1, ts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			if _, ok := rr.layers[d.name]; !ok && d.name != "trace_overhead" {
				t.Errorf("%s: per-layer %s missing", name, d.name)
			}
		}
		if e := rr.layers["stage.reconcile_err"]; e > reconcileTolerance {
			t.Errorf("%s: stage.reconcile_err %.3f", name, e)
		}
		if rr.layers["stage.fn.exec.us_per_req"] <= 0 || rr.layers["sim.events_per_req"] <= 0 {
			t.Errorf("%s: empty readings %v", name, rr.layers)
		}
		path, err := ts.write()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seen := map[string]int{}
		for _, ev := range doc.TraceEvents {
			seen[ev.Name]++
		}
		for _, n := range []string{"setup", "warmup", "slice", "submit", "request"} {
			if seen[n] == 0 {
				t.Errorf("%s: no %q span", name, n)
			}
		}
		if _, err := os.Stat(dir + "/" + name + "-0.pprof"); err != nil {
			t.Error(err)
		}
	}
}

// TestLateArrivalFails: the fence rejects an arrival issued off its due
// time.
func TestLateArrivalFails(t *testing.T) {
	r := &replica{eng: sim.NewEngine(1)}
	r.eng.RunUntil(5 * time.Microsecond)
	r.checkDue(3 * time.Microsecond)
	if err := r.check(); err == nil || !strings.Contains(err.Error(), "due time") {
		t.Fatalf("check() = %v, want a due-time error", err)
	}
}

var spinSink uint64

// spin burns CPU in registers, so even a race-instrumented build spends
// its time in this frame rather than in the race runtime.
//
//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := uint64(0); i < 100000; i++ {
			x = x*6364136223846793005 + i
		}
	}
	spinSink = x
}

// TestProfileAttribution captures a CPU profile of benchmark code and of
// the event core, decodes it, and checks the layer rule on both.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	eng := sim.NewEngine(1)
	var tick func()
	tick = func() { eng.After(time.Nanosecond, tick) }
	for i := 0; i < 1000; i++ {
		eng.At(0, tick)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		eng.RunFor(time.Microsecond)
	}
	pprof.StopCPUProfile()

	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	count, nanos := prof.totals()
	if count < 20 || nanos < 200*int64(time.Millisecond) {
		t.Fatalf("profile has %d samples, %v CPU", count, time.Duration(nanos))
	}
	byLayer, err := attribute(prof)
	if err != nil {
		t.Fatal(err)
	}
	// Each half ran for 300 ms of wall time.
	if floor := int64(100 * time.Millisecond); byLayer["bench"] < floor || byLayer["sim.event"] < floor {
		t.Errorf("attribution %v of %v", byLayer, time.Duration(nanos))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
	if _, err := decodeProfile([]byte{0x0a, 0x05, 0x08}); err == nil {
		t.Error("truncated protobuf decoded")
	}
}

// TestLayerRule pins the sample -> layer mapping on hand-made stacks.
func TestLayerRule(t *testing.T) {
	for _, tc := range []struct {
		frames []frame
		want   string
	}{
		{[]frame{{"runtime.mallocgc", "malloc.go"}, {"nadino/internal/dne.(*Engine).tx", "engine.go"}}, "dne"},
		{[]frame{{"runtime.chansend1", "chan.go"}, {"nadino/internal/sim.(*Proc).wake", "/x/sim/process.go"}}, "sim.proc"},
		{[]frame{{"nadino/internal/sim.(*Engine).fire", "/x/sim/engine.go"}}, "sim.event"},
		{[]frame{{"nadino/internal/ring.(*Deque[...]).PushBack", "ring.go"}, {"nadino/internal/ingress.(*Gateway).Submit", "ingress.go"}}, "ring"},
		{[]frame{{"runtime.scanobject", "mgcmark.go"}, {"runtime.gcBgMarkWorker", "mgc.go"}}, "runtime.gc"},
		{[]frame{{"runtime.gcAssistAlloc", "mgcmark.go"}, {"nadino/internal/core.(*Cluster).SubmitChain", "cluster.go"}}, "runtime.gc"},
		{[]frame{{"runtime.schedule", "proc.go"}, {"runtime.mcall", "asm.s"}}, "runtime.sched"},
		{[]frame{{"main.(*replica).observe", "replica.go"}}, "bench"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestResultLine: the last line of a run is the JSON result.
func TestResultLine(t *testing.T) {
	res := &result{wl: workloads[0], defs: endToEnd, metrics: map[string]float64{}, attempted: 10}
	for i, d := range endToEnd {
		res.metrics[d.name] = float64(i) + 0.5
	}
	res.validate()
	var out bytes.Buffer
	res.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 10 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
			if (g.Bound != nil) != (kind == "end_to_end") || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v vs %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
