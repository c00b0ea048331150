package chaos

import (
	"strings"
	"testing"
	"time"

	"nadino/internal/flightrec"
)

// TestParseSchedule decodes one event of every fault kind and checks the
// resulting schedule round-trips times and parameters.
func TestParseSchedule(t *testing.T) {
	doc := `{"events": [
		{"at_ms": 10, "for_ms": 5, "fault": {"kind": "link-down", "from": "nodeA", "to": "nodeB"}},
		{"at_ms": 20, "fault": {"kind": "node-down", "node": "nodeB"}},
		{"at_ms": 30, "for_ms": 1, "fault": {"kind": "partition", "a": ["nodeA"], "b": ["nodeB"], "one_way": true}},
		{"at_ms": 40, "for_ms": 2, "fault": {"kind": "link-loss", "from": "nodeA", "to": "nodeB", "prob": 0.25}},
		{"at_ms": 50, "for_ms": 2, "fault": {"kind": "link-jitter", "from": "nodeA", "to": "nodeB", "extra_us": 100, "jitter_us": 50}},
		{"at_ms": 60, "for_ms": 3, "fault": {"kind": "node-crash", "node": "nodeB", "qps": "qp@nodeA"}},
		{"at_ms": 70, "for_ms": 4, "fault": {"kind": "dma-stall", "target": "dma@nodeA"}},
		{"at_ms": 80, "for_ms": 5, "fault": {"kind": "slow-cores", "target": "cores@nodeA", "factor": 0.5}},
		{"at_ms": 90, "fault": {"kind": "qp-error", "target": "qp@nodeA", "count": 2}},
		{"at_ms": 95, "for_ms": 1, "fault": {"kind": "gateway-restart", "target": "ingress"}}
	]}`
	s, err := ParseSchedule([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 10 {
		t.Fatalf("parsed %d events, want 10", len(s))
	}
	if s[0].At != 10*time.Millisecond || s[0].For != 5*time.Millisecond {
		t.Fatalf("event 0 times wrong: %+v", s[0])
	}
	ld, ok := s[0].Fault.(LinkDown)
	if !ok || ld.From != "nodeA" || ld.To != "nodeB" {
		t.Fatalf("event 0 fault wrong: %#v", s[0].Fault)
	}
	ll := s[3].Fault.(LinkLoss)
	if ll.Prob != 0.25 {
		t.Fatalf("link-loss prob = %v", ll.Prob)
	}
	lj := s[4].Fault.(LinkJitter)
	if lj.Extra != 100*time.Microsecond || lj.Jitter != 50*time.Microsecond {
		t.Fatalf("link-jitter durations wrong: %+v", lj)
	}
	sc := s[7].Fault.(SlowCores)
	if sc.Factor != 0.5 {
		t.Fatalf("slow-cores factor = %v", sc.Factor)
	}
}

// TestParseScheduleRejects pins the error cases a management API must
// surface instead of installing garbage.
func TestParseScheduleRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"empty":        `{"events": []}`,
		"unknown-kind": `{"events": [{"at_ms": 1, "fault": {"kind": "meteor-strike"}}]}`,
		"bad-prob":     `{"events": [{"at_ms": 1, "fault": {"kind": "link-loss", "from": "a", "to": "b", "prob": 2}}]}`,
		"missing-node": `{"events": [{"at_ms": 1, "fault": {"kind": "node-down"}}]}`,
		"negative":     `{"events": [{"at_ms": -1, "fault": {"kind": "node-down", "node": "a"}}]}`,
		"not-json":     `{`,
		"past-horizon": horizonOverflow,
		"long-window":  `{"events": [{"at_ms": 1, "for_ms": 86400000, "fault": {"kind": "node-down", "node": "a"}}]}`,
		"neg-extra":    negExtra,
		"neg-jitter":   `{"events": [{"at_ms": 1, "fault": {"kind": "link-jitter", "from": "a", "to": "b", "jitter_us": -1}}]}`,
		"huge-extra":   `{"events": [{"at_ms": 1, "fault": {"kind": "link-jitter", "from": "a", "to": "b", "extra_us": 1e300}}]}`,
		"neg-count":    `{"events": [{"at_ms": 1, "fault": {"kind": "qp-error", "target": "qp@a", "count": -3}}]}`,
	} {
		if _, err := ParseSchedule([]byte(doc)); err == nil {
			t.Errorf("%s: parse accepted invalid schedule", name)
		}
	}
}

// Hostile documents the parser must reject: an at_ms whose Duration
// conversion overflows to a negative time (Install would panic in the
// engine), and a negative link latency.
const (
	horizonOverflow = `{"events":[{"at_ms":1e13,"fault":{"kind":"node-down","node":"nodeA"}}]}`
	negExtra        = `{"events":[{"at_ms":1,"fault":{"kind":"link-jitter","from":"nodeA","to":"nodeB","extra_us":-500}}]}`
)

// FuzzParseSchedule checks every schedule the parser accepts is one Install
// can schedule: non-negative times whose sum does not overflow, and
// non-negative fault parameters.
func FuzzParseSchedule(f *testing.F) {
	for _, doc := range []string{
		`{"events": [{"at_ms": 10, "for_ms": 5, "fault": {"kind": "link-down", "from": "nodeA", "to": "nodeB"}}]}`,
		`{"events": [{"at_ms": 30, "for_ms": 1, "fault": {"kind": "partition", "a": ["nodeA"], "b": ["nodeB"], "one_way": true}}]}`,
		`{"events": [{"at_ms": 40, "for_ms": 2, "fault": {"kind": "link-loss", "from": "nodeA", "to": "nodeB", "prob": 0.25}}]}`,
		`{"events": [{"at_ms": 50, "for_ms": 2, "fault": {"kind": "link-jitter", "from": "nodeA", "to": "nodeB", "extra_us": 100, "jitter_us": 50}}]}`,
		`{"events": [{"at_ms": 80, "for_ms": 5, "fault": {"kind": "slow-cores", "target": "cores@nodeA", "factor": 0.5}}]}`,
		`{"events": [{"at_ms": 90, "fault": {"kind": "qp-error", "target": "qp@nodeA", "count": 2}}]}`,
		`{"events": [{"at_ms": -1, "fault": {"kind": "node-down", "node": "a"}}]}`,
		horizonOverflow,
		negExtra,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSchedule(data)
		if err != nil {
			return
		}
		for i, ev := range s {
			if ev.At < 0 || ev.For < 0 || ev.At+ev.For < ev.At {
				t.Fatalf("event %d: accepted times at=%v for=%v", i, ev.At, ev.For)
			}
			bad := false
			switch fl := ev.Fault.(type) {
			case LinkJitter:
				bad = fl.Extra < 0 || fl.Jitter < 0
			case LinkLoss:
				bad = fl.Prob < 0 || fl.Prob > 1
			case SlowCores:
				bad = fl.Factor <= 0
			case QPError:
				bad = fl.Count < 0
			}
			if bad {
				t.Fatalf("event %d: accepted fault parameters %#v", i, ev.Fault)
			}
		}
	})
}

// TestShiftInstall checks a relative wire schedule shifted to "now"
// installs and fires on a running engine, and that apply/revert land in an
// attached flight recorder.
func TestShiftInstall(t *testing.T) {
	eng, net := newNet(t, 1, "nodeA", "nodeB")
	in := NewInjector(eng, net, 7)
	rec := flightrec.New(64, eng.Now)
	in.SetFlightRecorder(rec)

	s, err := ParseSchedule([]byte(
		`{"events": [{"at_ms": 5, "for_ms": 5, "fault": {"kind": "link-down", "from": "nodeA", "to": "nodeB"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100 * time.Millisecond) // engine already mid-run
	in.Install(s.Shift(eng.Now()))
	eng.RunUntil(200 * time.Millisecond)

	if in.Applied() != 1 || in.Reverted() != 1 {
		t.Fatalf("applied=%d reverted=%d, want 1/1", in.Applied(), in.Reverted())
	}
	hist := in.History()
	if len(hist) != 2 || !strings.Contains(hist[0], "t=105ms") {
		t.Fatalf("history wrong: %v", hist)
	}
	ev := rec.Snapshot()
	if len(ev) != 2 || ev[0].Kind != flightrec.KindChaosApply || ev[1].Kind != flightrec.KindChaosRevert {
		t.Fatalf("flight recorder events wrong: %+v", ev)
	}
	if ev[0].At != 105*time.Millisecond || ev[1].At != 110*time.Millisecond {
		t.Fatalf("event times wrong: %+v", ev)
	}
	if rec.ActorName(ev[0].Actor) != "link-down(nodeA>nodeB)" {
		t.Fatalf("actor = %q", rec.ActorName(ev[0].Actor))
	}
}
