package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// fakeClock is a manually advanced virtual clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.SetClock(func() time.Duration { return 0 })
	tr.SetLimit(10)
	if tr.Dropped() != 0 || tr.Requests() != nil {
		t.Fatal("nil tracer accessors must be zero")
	}
	r := tr.StartRequest("x")
	if r != nil {
		t.Fatal("nil tracer must return nil request")
	}
	// Every method on a nil request must be a safe no-op.
	sp := r.Begin("a", "b")
	sp.End()
	r.BeginDetail("a", "b").End()
	r.BeginStage("a", "b")
	r.BeginStageDetail("a", "b")
	r.EndStage("a")
	r.Record("a", "b", 0, 1)
	r.RecordDetail("a", "b", 0, 1)
	r.Event("a", "b")
	r.Finish()
	if r.Finished() || r.Spans() != nil {
		t.Fatal("nil request must report unfinished with no spans")
	}
	rep := tr.Report()
	if rep.Requests != 0 || rep.StageSumPerRequest() != 0 {
		t.Fatal("nil tracer report must be empty")
	}
}

func TestSpanTilingReconciles(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	r := tr.StartRequest("req")

	s1 := r.Begin("stage.a", "core0")
	clk.now = 10 * time.Microsecond
	s1.End()
	s1.End() // double End is a no-op

	r.BeginStage("stage.b", "core0")
	clk.now = 25 * time.Microsecond
	r.EndStage("stage.b")

	// A detail span overlapping stage.c must not enter the tiling sum.
	r.RecordDetail("stage.wire", "nic", 25*time.Microsecond, 40*time.Microsecond)
	r.Record("stage.c", "core1", 25*time.Microsecond, 45*time.Microsecond)
	r.Event("stage.rnr", "nic")

	clk.now = 45 * time.Microsecond
	r.Finish()

	rep := tr.Report()
	if rep.Requests != 1 || rep.Unfinished != 0 {
		t.Fatalf("requests=%d unfinished=%d", rep.Requests, rep.Unfinished)
	}
	if got := rep.EndToEnd.Mean(); got != 45*time.Microsecond {
		t.Fatalf("end-to-end mean %v, want 45us", got)
	}
	if got := rep.StageSumPerRequest(); got != 45*time.Microsecond {
		t.Fatalf("tiling stage sum %v, want 45us", got)
	}
	var sawDetail, sawEvent bool
	for _, st := range rep.Stages {
		if st.Stage == "stage.wire" {
			sawDetail = true
			if !st.Detail || st.Total != 15*time.Microsecond {
				t.Fatalf("detail stage misreported: %+v", st)
			}
		}
		if st.Stage == "stage.rnr" {
			sawEvent = true
			if st.Total != 0 {
				t.Fatalf("event stage has nonzero total: %+v", st)
			}
		}
	}
	if !sawDetail || !sawEvent {
		t.Fatal("detail/event stages missing from report")
	}
}

func TestBeginEndStageLIFO(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	r := tr.StartRequest("req")

	r.EndStage("q") // empty stack: no-op, no panic

	r.BeginStage("q", "a")
	clk.now = 5 * time.Microsecond
	r.BeginStage("q", "b")
	clk.now = 8 * time.Microsecond
	r.EndStage("q") // closes b's span [5,8]
	clk.now = 20 * time.Microsecond
	r.EndStage("q") // closes a's span [0,20]
	r.Finish()

	var total time.Duration
	for _, sp := range r.Spans()[1:] {
		total += sp.Duration()
	}
	if total != 23*time.Microsecond {
		t.Fatalf("LIFO stage total %v, want 23us", total)
	}
}

func TestOpenSpansAndUnfinishedExcluded(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)

	r1 := tr.StartRequest("done")
	r1.BeginStage("dangling", "x") // never ended
	clk.now = 10 * time.Microsecond
	r1.Record("stage.a", "x", 0, 10*time.Microsecond)
	r1.Finish()

	tr.StartRequest("never-finished")

	rep := tr.Report()
	if rep.Requests != 1 || rep.Unfinished != 1 {
		t.Fatalf("requests=%d unfinished=%d", rep.Requests, rep.Unfinished)
	}
	for _, st := range rep.Stages {
		if st.Stage == "dangling" {
			t.Fatal("open span leaked into report")
		}
	}
	if rep.StageSumPerRequest() != 10*time.Microsecond {
		t.Fatalf("stage sum %v", rep.StageSumPerRequest())
	}
}

func TestRequestLimitSampling(t *testing.T) {
	tr := New(nil)
	tr.SetLimit(2)
	if tr.StartRequest("a") == nil || tr.StartRequest("b") == nil {
		t.Fatal("first two requests must be traced")
	}
	if tr.StartRequest("c") != nil {
		t.Fatal("request past limit must be dropped")
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped=%d, want 1", tr.Dropped())
	}
}

func TestRecordDropsInvertedBounds(t *testing.T) {
	tr := New(nil)
	r := tr.StartRequest("x")
	r.Record("bad", "a", 10, 5)
	if len(r.Spans()) != 1 {
		t.Fatal("inverted Record must be dropped")
	}
}

func TestWriteChrome(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	r := tr.StartRequest("req")
	r.Begin("stage.a", "core0").End()
	r.BeginStage("dangling", "x") // open: must be skipped
	r.Event("stage.rnr", "nic")
	clk.now = 30 * time.Microsecond
	r.Finish()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []Profile{{Name: "p0", Tracer: tr}}, nil); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	var phases []string
	for _, ev := range file.TraceEvents {
		if ev["name"] == "dangling" {
			t.Fatal("open span exported")
		}
		phases = append(phases, ev["ph"].(string))
	}
	want := map[string]bool{"M": false, "X": false, "i": false}
	for _, ph := range phases {
		want[ph] = true
	}
	for ph, ok := range want {
		if !ok {
			t.Fatalf("missing phase %q in export", ph)
		}
	}
}
