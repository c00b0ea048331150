package chaos

import (
	"encoding/json"
	"fmt"
	"time"

	"nadino/internal/fabric"
)

// This file is the schedule wire format: a JSON document a management plane
// (the nadino-svc /api/v1/chaos endpoint) or a config file can carry, parsed
// into the same Schedule the programmatic API builds. Times are
// milliseconds relative to the document's own zero; hot installers shift
// the schedule to "now" with Shift before Install.

// wireEvent is one JSON schedule entry.
type wireEvent struct {
	AtMS  float64   `json:"at_ms"`
	ForMS float64   `json:"for_ms,omitempty"`
	Fault wireFault `json:"fault"`
}

// wireFault is the tagged union of every injectable fault kind. Unused
// fields for a kind are simply omitted.
type wireFault struct {
	Kind string `json:"kind"`

	From string `json:"from,omitempty"` // link faults
	To   string `json:"to,omitempty"`
	Node string `json:"node,omitempty"` // node faults

	A      []string `json:"a,omitempty"` // partition groups
	B      []string `json:"b,omitempty"`
	OneWay bool     `json:"one_way,omitempty"`

	Prob     float64 `json:"prob,omitempty"`     // link-loss
	ExtraUS  float64 `json:"extra_us,omitempty"` // link-jitter
	JitterUS float64 `json:"jitter_us,omitempty"`

	Target string  `json:"target,omitempty"` // named injector targets
	QPs    string  `json:"qps,omitempty"`    // node-crash re-handshake set
	Factor float64 `json:"factor,omitempty"` // slow-cores
	Count  int     `json:"count,omitempty"`  // qp-error
}

// wireSchedule is the document root.
type wireSchedule struct {
	Events []wireEvent `json:"events"`
}

// WireHorizon bounds every wire time: events must end (at_ms + for_ms)
// within it, and link-jitter delays may not exceed it. Larger values are
// hostile or corrupt, and past ~292 years the float-to-Duration conversion
// overflows into negative times the engine cannot schedule. Other wire
// formats that carry relative times (the management API's watchdog rule
// windows) share the bound.
const WireHorizon = 24 * time.Hour

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func ids(ss []string) []fabric.NodeID {
	out := make([]fabric.NodeID, len(ss))
	for i, s := range ss {
		out[i] = fabric.NodeID(s)
	}
	return out
}

// decodeFault maps one wire fault onto its Fault implementation.
func decodeFault(w wireFault) (Fault, error) {
	switch w.Kind {
	case "link-down":
		if w.From == "" || w.To == "" {
			return nil, fmt.Errorf("chaos: link-down needs from and to")
		}
		return LinkDown{From: fabric.NodeID(w.From), To: fabric.NodeID(w.To)}, nil
	case "node-down":
		if w.Node == "" {
			return nil, fmt.Errorf("chaos: node-down needs node")
		}
		return NodeDown{Node: fabric.NodeID(w.Node)}, nil
	case "partition":
		if len(w.A) == 0 || len(w.B) == 0 {
			return nil, fmt.Errorf("chaos: partition needs non-empty groups a and b")
		}
		return Partition{A: ids(w.A), B: ids(w.B), OneWay: w.OneWay}, nil
	case "link-loss":
		if w.From == "" || w.To == "" {
			return nil, fmt.Errorf("chaos: link-loss needs from and to")
		}
		if w.Prob < 0 || w.Prob > 1 {
			return nil, fmt.Errorf("chaos: link-loss prob %v outside [0,1]", w.Prob)
		}
		return LinkLoss{From: fabric.NodeID(w.From), To: fabric.NodeID(w.To), Prob: w.Prob}, nil
	case "link-jitter":
		if w.From == "" || w.To == "" {
			return nil, fmt.Errorf("chaos: link-jitter needs from and to")
		}
		maxUS := float64(WireHorizon / time.Microsecond)
		if w.ExtraUS < 0 || w.ExtraUS > maxUS || w.JitterUS < 0 || w.JitterUS > maxUS {
			return nil, fmt.Errorf("chaos: link-jitter extra_us %v / jitter_us %v outside [0, %v]", w.ExtraUS, w.JitterUS, WireHorizon)
		}
		return LinkJitter{
			From: fabric.NodeID(w.From), To: fabric.NodeID(w.To),
			Extra:  time.Duration(w.ExtraUS * float64(time.Microsecond)),
			Jitter: time.Duration(w.JitterUS * float64(time.Microsecond)),
		}, nil
	case "node-crash":
		if w.Node == "" {
			return nil, fmt.Errorf("chaos: node-crash needs node")
		}
		return NodeCrash{Node: fabric.NodeID(w.Node), QPs: w.QPs}, nil
	case "dma-stall":
		if w.Target == "" {
			return nil, fmt.Errorf("chaos: dma-stall needs target")
		}
		return DMAStall{Target: w.Target}, nil
	case "slow-cores":
		if w.Target == "" {
			return nil, fmt.Errorf("chaos: slow-cores needs target")
		}
		if w.Factor <= 0 {
			return nil, fmt.Errorf("chaos: slow-cores factor %v must be positive", w.Factor)
		}
		return SlowCores{Target: w.Target, Factor: w.Factor}, nil
	case "qp-error":
		if w.Target == "" {
			return nil, fmt.Errorf("chaos: qp-error needs target")
		}
		if w.Count < 0 {
			return nil, fmt.Errorf("chaos: qp-error count %d is negative", w.Count)
		}
		return QPError{Target: w.Target, Count: w.Count}, nil
	case "gateway-restart":
		if w.Target == "" {
			return nil, fmt.Errorf("chaos: gateway-restart needs target")
		}
		return GatewayRestart{Target: w.Target}, nil
	}
	return nil, fmt.Errorf("chaos: unknown fault kind %q", w.Kind)
}

// ParseSchedule decodes the JSON wire format into a Schedule. Event times
// are relative to the document's zero; pair with Shift for hot installs.
// Every event must end within WireHorizon of that zero.
func ParseSchedule(data []byte) (Schedule, error) {
	var doc wireSchedule
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("chaos: parse schedule: %w", err)
	}
	if len(doc.Events) == 0 {
		return nil, fmt.Errorf("chaos: schedule has no events")
	}
	out := make(Schedule, 0, len(doc.Events))
	for i, ev := range doc.Events {
		if ev.AtMS < 0 || ev.ForMS < 0 {
			return nil, fmt.Errorf("chaos: event %d has negative time", i)
		}
		if ev.AtMS+ev.ForMS > float64(WireHorizon/time.Millisecond) {
			return nil, fmt.Errorf("chaos: event %d ends past the %v schedule horizon", i, WireHorizon)
		}
		f, err := decodeFault(ev.Fault)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		out = append(out, Event{At: ms(ev.AtMS), For: ms(ev.ForMS), Fault: f})
	}
	return out, nil
}

// Shift returns a copy of the schedule with every event offset by d —
// how a relative wire schedule becomes absolute against a running engine
// (Shift(eng.Now()) then Install).
func (s Schedule) Shift(d time.Duration) Schedule {
	out := make(Schedule, len(s))
	for i, ev := range s {
		out[i] = Event{At: ev.At + d, For: ev.For, Fault: ev.Fault}
	}
	return out
}
