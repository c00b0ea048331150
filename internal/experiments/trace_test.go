package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"nadino/internal/dne"
	"nadino/internal/params"
	"nadino/internal/trace"
)

// reconcile asserts that the non-overlapping stage spans account for the
// trace's end-to-end mean within tol, and returns the report.
func reconcile(t *testing.T, tr *trace.Tracer, tol float64) *trace.Report {
	t.Helper()
	rep := tr.Report()
	if rep.Requests == 0 {
		t.Fatal("no finished requests traced")
	}
	e2e := rep.EndToEnd.Mean()
	if e2e <= 0 {
		t.Fatalf("bogus end-to-end mean %v", e2e)
	}
	sum := rep.StageSumPerRequest()
	gap := math.Abs(float64(sum)-float64(e2e)) / float64(e2e)
	if gap > tol {
		for _, s := range rep.Stages {
			t.Logf("stage %-22s detail=%v mean/req=%v", s.Stage, s.Detail, s.PerRequest(rep.Requests))
		}
		t.Errorf("stage sum %v vs end-to-end mean %v: gap %.1f%% > %.0f%%",
			sum, e2e, 100*gap, 100*tol)
	}
	return rep
}

// TestDNEEchoTraceReconciles is the tentpole acceptance check: tracing the
// full DNE echo path (port -> comch -> DNE -> RDMA -> fabric and back), the
// per-stage attribution must sum to the observed end-to-end latency.
func TestDNEEchoTraceReconciles(t *testing.T) {
	p := params.Default()
	tr := trace.New(nil)
	_, lat := runDNEEcho(p, 1, dne.OffPath, 1024, 4, 20*time.Millisecond, tr)
	rep := reconcile(t, tr, 0.05)
	// The trace's own end-to-end mean must agree with the RTT the benchmark
	// reports (same steady-state window; populations differ only by
	// requests in flight at the window edges).
	e2e := rep.EndToEnd.Mean()
	if lat <= 0 {
		t.Fatalf("benchmark reported no latency")
	}
	if drift := math.Abs(float64(e2e)-float64(lat)) / float64(lat); drift > 0.10 {
		t.Errorf("trace end-to-end mean %v drifts %.1f%% from reported mean RTT %v", e2e, 100*drift, lat)
	}
	// Tracing must actually see the isolation layer's stages.
	want := map[string]bool{
		trace.StagePortSend: false, trace.StageComchH2D: false,
		trace.StageDNETx: false, trace.StageRDMA: false,
	}
	for _, s := range rep.Stages {
		if _, ok := want[s.Stage]; ok {
			want[s.Stage] = true
		}
	}
	for stage, seen := range want {
		if !seen {
			t.Errorf("stage %q missing from DNE echo trace", stage)
		}
	}
}

// TestNativeEchoTraceReconciles covers the bare-verbs path (no DNE layer).
func TestNativeEchoTraceReconciles(t *testing.T) {
	p := params.Default()
	tr := trace.New(nil)
	_, lat := runNativeEcho(p, 1, p.HostCoreSpeed, 1024, 4, 20*time.Millisecond, tr)
	if lat <= 0 {
		t.Fatal("benchmark reported no latency")
	}
	reconcile(t, tr, 0.05)
}

// TestFig06TraceExport drives the experiment exactly as `nadino-bench -run
// fig06 -trace` does and checks both deliverables: per-profile stage tables
// and a valid Chrome trace-event JSON export.
func TestFig06TraceExport(t *testing.T) {
	var profiles []trace.Profile
	o := Opts{Quick: true, Seed: 1, Trace: true, TraceSink: func(name string, tr *trace.Tracer) {
		profiles = append(profiles, trace.Profile{Name: name, Tracer: tr})
	}}
	res := Fig06(o)
	if len(res.Rows) == 0 {
		t.Fatal("fig06 produced no rows")
	}
	if want := len(res.Rows); len(profiles) != want {
		t.Fatalf("got %d trace profiles, want one per row (%d)", len(profiles), want)
	}
	for _, pr := range profiles {
		rep := pr.Tracer.Report()
		if rep.Requests == 0 {
			t.Errorf("profile %q traced no finished requests", pr.Name)
			continue
		}
		tb := TraceTable(pr.Name, rep)
		if len(tb.Rows) == 0 {
			t.Errorf("profile %q produced an empty attribution table", pr.Name)
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, profiles, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export contains no events")
	}
}
