package trace

import (
	"encoding/json"
	"io"
	"time"
)

// Profile names one tracer for export; each profile becomes one Chrome
// trace process (pid) with a thread (tid) per actor.
type Profile struct {
	Name   string
	Tracer *Tracer
}

// chromeRequestCap bounds how many finished requests per profile are
// exported. Attribution reports use every traced request; the Chrome file
// is for eyeballing individual timelines, so a head sample keeps it small.
const chromeRequestCap = 100

// ChromeEvent is one entry of the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// It is the single event shape every Chrome export in the repository
// encodes: span timelines, telemetry counters and flight-recorder dumps.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeMeta returns the metadata event naming a process (tid 0) or one of
// its threads.
func ChromeMeta(pid, tid int, name string) ChromeEvent {
	kind := "process_name"
	if tid != 0 {
		kind = "thread_name"
	}
	return ChromeEvent{Name: kind, Phase: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

// EncodeChrome writes events as a Chrome trace-event JSON file (load it in
// chrome://tracing or https://ui.perfetto.dev), in the given order.
func EncodeChrome(w io.Writer, events []ChromeEvent) error {
	if events == nil {
		events = []ChromeEvent{}
	}
	return json.NewEncoder(w).Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// CounterPoint is one sample of a Chrome counter timeline.
type CounterPoint struct {
	T time.Duration
	V float64
}

// CounterTrack is one named counter timeline, rendered as Chrome counter
// events (`"ph":"C"`) so telemetry series plot alongside the span
// timelines. internal/telemetry produces these from its scraped series.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// WriteChrome renders the profiles' span timelines plus any counter
// timelines as one Chrome trace file. Virtual time maps directly onto the
// trace clock; open spans are skipped. Each counter track becomes a
// `"ph":"C"` series under a dedicated "telemetry" process, so scraped
// gauges render as strip charts above the span rows.
func WriteChrome(w io.Writer, profiles []Profile, counters []CounterTrack) error {
	var events []ChromeEvent
	for pid, p := range profiles {
		events = append(events, ChromeMeta(pid, 0, p.Name))
		tids := make(map[string]int)
		exported := 0
		for _, r := range p.Tracer.Requests() {
			if !r.Finished() {
				continue
			}
			if exported++; exported > chromeRequestCap {
				break
			}
			for _, sp := range r.Spans() {
				if sp.Open() {
					continue
				}
				tid, ok := tids[sp.Actor]
				if !ok {
					tid = len(tids) + 1
					tids[sp.Actor] = tid
					events = append(events, ChromeMeta(pid, tid, sp.Actor))
				}
				ev := ChromeEvent{
					Name:  sp.Stage,
					Phase: "X",
					TS:    float64(sp.Start.Nanoseconds()) / 1e3,
					Dur:   float64(sp.Duration().Nanoseconds()) / 1e3,
					PID:   pid,
					TID:   tid,
					Args: map[string]any{
						"trace": r.Name, "span": sp.ID, "parent": sp.Parent,
					},
				}
				if sp.Duration() == 0 && sp.Detail {
					ev.Phase = "i"
					ev.Dur = 0
					ev.Scope = "t"
				}
				events = append(events, ev)
			}
		}
	}
	if len(counters) > 0 {
		pid := len(profiles)
		events = append(events, ChromeMeta(pid, 0, "telemetry"))
		for _, tr := range counters {
			for _, p := range tr.Points {
				events = append(events, ChromeEvent{
					Name:  tr.Name,
					Phase: "C",
					TS:    float64(p.T.Nanoseconds()) / 1e3,
					PID:   pid,
					Args:  map[string]any{"value": p.V},
				})
			}
		}
	}
	return EncodeChrome(w, events)
}
