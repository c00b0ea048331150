package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// traceSession is the traced run of one workload. It keeps the
// benchmark-side spans of every traced replica in memory and writes them
// as one Chrome trace when the run ends; CPU profiles go beside it.
type traceSession struct {
	wl     *workload
	dir    string
	origin time.Time // zero of the host-clock spans
	spans  []span
	rows   int // traced replicas so far
}

// span is one benchmark-side span: host wall time (setup, warmup, slice,
// submit) or virtual time (request). Each replica has its own row.
type span struct {
	name       string
	virtual    bool
	row        int
	start, dur time.Duration // host: since origin; virtual: engine time
	id         uint64        // request id as the ingress numbers them, or 0
}

func newTraceSession(wl *workload, dir string) (*traceSession, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &traceSession{wl: wl, dir: dir, origin: time.Now()}, nil
}

func (ts *traceSession) newProbe(r *replica, setupStart, warmStart time.Time) *layerProbe {
	p := &layerProbe{ts: ts, r: r, row: ts.rows}
	ts.rows++
	ts.hostSpan("setup", p.row, setupStart, warmStart, 0)
	ts.hostSpan("warmup", p.row, warmStart, time.Now(), 0)
	return p
}

func (ts *traceSession) hostSpan(name string, row int, start, end time.Time, id uint64) {
	ts.spans = append(ts.spans, span{name: name, row: row, start: start.Sub(ts.origin), dur: end.Sub(start), id: id})
}

// Chrome trace-event process ids: one for each clock.
const (
	pidHost    = 1
	pidVirtual = 2
)

type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	ID   uint64 `json:"id,omitempty"`
	Name string `json:"name,omitempty"`
}

// write emits the spans as Chrome trace-event JSON and returns its path.
func (ts *traceSession) write() (string, error) {
	path := filepath.Join(ts.dir, ts.wl.name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	meta := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pidHost, Args: &chromeArgs{Name: "benchmark (host wall clock)"}},
		{Name: "process_name", Ph: "M", Pid: pidVirtual, Args: &chromeArgs{Name: "requests (virtual time)"}},
	}
	for i, ev := range meta {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(ev); err != nil {
			return "", err
		}
	}
	for _, s := range ts.spans {
		ev := chromeEvent{
			Name: s.name, Ph: "X", Pid: pidHost, Tid: s.row,
			Ts: float64(s.start) / float64(time.Microsecond), Dur: float64(s.dur) / float64(time.Microsecond),
		}
		if s.virtual {
			ev.Pid = pidVirtual
		}
		if s.id != 0 {
			ev.Args = &chromeArgs{ID: s.id}
		}
		w.WriteByte(',')
		if err := enc.Encode(ev); err != nil {
			return "", err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
