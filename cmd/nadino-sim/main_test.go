package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"nadino/internal/core"
	"nadino/internal/workload"
)

// replayConfig is the 2-node cluster the replay tests drive.
func replayConfig(seed int64) core.Config {
	return core.Config{
		System: core.NadinoDNE,
		Nodes:  []string{"node1", "node2"},
		Functions: []core.FunctionSpec{
			{Name: "front", Node: "node1", Service: 20 * time.Microsecond},
			{Name: "back", Node: "node2", Service: 15 * time.Microsecond},
		},
		Chains: []core.ChainSpec{{
			Name: "main", Entry: "front", ReqBytes: 512, RespBytes: 1024,
			Calls: []core.Call{{Callee: "back", ReqBytes: 1024, RespBytes: 1024}},
		}},
		Seed: seed,
	}
}

// TestReplaySpeculativeTrace feeds a recorded trace whose arrivals carry
// clone factors and hedge deadlines through the -trace-file path end to end:
// ParseTrace must surface the new fields, the replay must route them into
// per-request speculative submission, and the spec.* telemetry family must
// show the launched groups, clones, and hedges.
func TestReplaySpeculativeTrace(t *testing.T) {
	trace := strings.Join([]string{
		"# recorded production schedule with tail-cutting policy attached",
		"0,main,20",        // plain burst, no overrides
		"40,main,20,2,0",   // clone=2
		"80,main,20,0,60",  // hedge after 60µs
		"120,main,20,3,80", // clone=3 plus hedge
		"160,main,40",      // plain tail
	}, "\n") + "\n"
	rp, err := workload.ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Total() != 120 {
		t.Fatalf("trace total = %d, want 120", rp.Total())
	}
	spec := 0
	for _, a := range rp.Arrivals {
		if a.Speculative() {
			spec++
		}
	}
	if spec != 3 {
		t.Fatalf("parsed %d speculative arrivals, want 3", spec)
	}

	var out bytes.Buffer
	sc, err := runCluster(replayConfig(7), runOpts{
		chain: "main", dur: 5 * time.Millisecond, replay: rp, telemetry: true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replay of 5 arrivals (120 requests") {
		t.Fatalf("replay banner missing:\n%s", out.String())
	}

	// Integrate the spec.* rate series back to totals: every arrival is one
	// launched group, the clone lines amplify, the hedge lines arm timers.
	totals := map[string]float64{}
	for _, s := range sc.Series() {
		if !strings.HasPrefix(s.Name, "spec.") {
			continue
		}
		for _, pt := range s.Points {
			totals[s.Name] += pt.V * sc.Period().Seconds()
		}
	}
	if totals["spec.launched"] < 100 {
		t.Fatalf("spec.launched integrates to %.1f, want ~120 (series: %v)",
			totals["spec.launched"], totals)
	}
	if totals["spec.clones"] <= 0 {
		t.Fatalf("clone overrides never cloned: %v", totals)
	}
	if totals["spec.hedges"] <= 0 {
		t.Fatalf("hedge overrides never armed: %v", totals)
	}
}

// TestReplayDeterministic pins the speculative replay to byte-identical
// reruns — the property every nadino-sim mode guarantees per seed.
func TestReplayDeterministic(t *testing.T) {
	trace := "0,main,10,2,50\n30,main,10\n60,main,10,0,40\n"
	rp, err := workload.ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := runCluster(replayConfig(3), runOpts{chain: "main", dur: 3 * time.Millisecond, replay: rp}, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := runCluster(replayConfig(3), runOpts{chain: "main", dur: 3 * time.Millisecond, replay: rp}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("replay runs diverged:\n--- first\n%s--- second\n%s", a.String(), b.String())
	}
}

// TestCheckLoadRejects covers the load flags nadino-sim refuses (exit 2)
// instead of panicking or silently running something else.
func TestCheckLoadRejects(t *testing.T) {
	// defaults mirrors the flag defaults.
	defaults := runOpts{clients: 20, dur: 300 * time.Millisecond, zipf: 1, diurnal: 0.5,
		period: 200 * time.Millisecond, openThink: 10 * time.Millisecond}
	if err := checkLoad(defaults, false); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		name      string
		edit      func(r *runOpts)
		replaying bool
		flag      string
	}{
		{"zero think", func(r *runOpts) { r.openThink = 0 }, false, "-open-think"},
		{"negative think", func(r *runOpts) { r.openThink = -time.Millisecond }, false, "-open-think"},
		{"telemetry under 100ns", func(r *runOpts) { r.telemetry, r.dur = true, 99 }, false, "-dur"},
		{"zero window", func(r *runOpts) { r.dur = 0 }, false, "-dur"},
		{"negative trace rate", func(r *runOpts) { r.traceRPS = -5 }, false, "-trace-rps"},
		{"NaN trace rate", func(r *runOpts) { r.traceRPS = math.NaN() }, false, "-trace-rps"},
		{"infinite trace rate", func(r *runOpts) { r.traceRPS = math.Inf(1) }, false, "-trace-rps"},
		{"zero period", func(r *runOpts) { r.period = 0 }, false, "-period"},
		{"diurnal 1", func(r *runOpts) { r.diurnal = 1 }, false, "-diurnal"},
		{"negative diurnal", func(r *runOpts) { r.diurnal = -0.1 }, false, "-diurnal"},
		{"NaN zipf", func(r *runOpts) { r.zipf = math.NaN() }, false, "-zipf"},
		{"negative open clients", func(r *runOpts) { r.openClients = -3 }, false, "-open-clients"},
		{"trace file and open clients", func(r *runOpts) { r.openClients = 10 }, true, "mutually exclusive"},
		{"trace file and trace rate", func(r *runOpts) { r.traceRPS = 100 }, true, "mutually exclusive"},
		{"trace rate and open clients", func(r *runOpts) { r.traceRPS, r.openClients = 100, 10 }, false, "mutually exclusive"},
	} {
		r := defaults
		tc.edit(&r)
		err := checkLoad(r, tc.replaying)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: checkLoad = %v, want an error naming %s", tc.name, err, tc.flag)
		}
	}
}
