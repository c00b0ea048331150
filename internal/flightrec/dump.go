package flightrec

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"nadino/internal/trace"
)

// WriteChrome renders the retained events as a Chrome trace-event JSON file
// (chrome://tracing or ui.perfetto.dev): one instant event per record, one
// thread row per actor, under a single "flightrec" process. Output order
// and ids are deterministic (ring order and first-appearance order).
func WriteChrome(w io.Writer, r *Recorder) error {
	events := []trace.ChromeEvent{trace.ChromeMeta(0, 0, "flightrec")}
	tids := make(map[uint16]int)
	for _, e := range r.Snapshot() {
		tid, ok := tids[e.Actor]
		if !ok {
			tid = len(tids) + 1
			tids[e.Actor] = tid
			events = append(events, trace.ChromeMeta(0, tid, r.ActorName(e.Actor)))
		}
		events = append(events, trace.ChromeEvent{
			Name:  e.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    float64(e.At.Nanoseconds()) / 1e3,
			TID:   tid,
			Args:  map[string]any{"a": e.A, "b": e.B},
		})
	}
	return trace.EncodeChrome(w, events)
}

// WriteText renders the newest lastN retained events (all with lastN <= 0)
// as a human-readable report, oldest first — the "last 50 events before the
// breach" view attached to SLO and invariant reports.
func WriteText(w io.Writer, r *Recorder, lastN int) error {
	bw := bufio.NewWriter(w)
	ev := r.Last(lastN)
	fmt.Fprintf(bw, "flightrec: %d event(s) shown, %d retained, %d recorded\n",
		len(ev), r.Len(), r.Total())
	for _, e := range ev {
		fmt.Fprintf(bw, "  t=%-12v %-18s %-24s a=%d b=%d\n",
			e.At, e.Kind, r.ActorName(e.Actor), e.A, e.B)
	}
	return bw.Flush()
}

// TextDump is WriteText into a string (convenience for reports and tests).
func TextDump(r *Recorder, lastN int) string {
	var b strings.Builder
	_ = WriteText(&b, r, lastN)
	return b.String()
}
