// Package telemetry is the simulation's unified observability layer: a
// labeled metric registry, a virtual-time scraper that snapshots live
// gauges across the stack into append-only time series, exporters (CSV,
// JSON, Prometheus text format, Chrome-trace counter events, a static HTML
// dashboard), and an SLO watchdog that evaluates declarative rules over
// the series in virtual time.
//
// The design follows the repository's two instrumentation idioms:
//
//   - Zero cost when off. Hot-path handles (Counter, Hist) are nil-safe
//     no-ops, exactly like trace.Req: model code holds a possibly-nil
//     pointer and pays one branch when telemetry is disabled. Gauges are
//     pull-based callbacks over accessors the layers already expose, so an
//     uninstrumented run executes no telemetry code at all.
//
//   - Deterministic output. Probes are registered into insertion-order
//     slices (never iterated from maps), the scraper rides the engine's
//     virtual-time Ticker, and every exporter formats floats with
//     strconv — for a fixed seed the exported bytes are identical
//     run-to-run and identical between sequential and parallel sharded
//     experiment execution.
package telemetry

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nadino/internal/metrics"
)

// Label is one key=value dimension of a metric (tenant, node, link, ...).
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Meta identifies one metric: a name plus ordered labels. Label order is
// the registration order and is part of the series identity.
type Meta struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
}

// Key renders the canonical series key, e.g. `dne.keeper_debt{node=nodeA}`.
func (m Meta) Key() string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteByte('{')
	for i, l := range m.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// labels converts variadic "k1, v1, k2, v2" pairs into ordered Labels.
func labels(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic("telemetry: labels must come in key/value pairs")
	}
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// probeKind discriminates how a probe is sampled.
type probeKind int

const (
	kindCounter probeKind = iota // push counter -> windowed rate series
	kindGauge                    // callback -> instantaneous value series
	kindRate                     // cumulative callback -> windowed derivative
	kindHist                     // histogram handle -> p50/p99 series
)

// probe is one registered metric source. A single insertion-order slice
// holds every kind so the scraper's series order is the registration order.
type probe struct {
	meta    Meta
	kind    probeKind
	counter *Counter
	fn      func() float64
	hist    *metrics.Hist
}

// Counter is a monotonically increasing event count with an allocation-free
// hot path. Model code holds a possibly-nil *Counter; Add on nil is a no-op,
// so instrumented paths cost one branch when telemetry is off (the
// trace.Req idiom). The scraper converts counters into windowed rate
// series (events/second per scrape period).
//
// The count is atomic so a live scrape (the nadino-svc /metrics endpoint,
// served off the simulation loop) can read counters while the engine
// updates them without a data race; the simulation itself stays
// single-threaded and pays one uncontended atomic add.
type Counter struct {
	meta Meta
	v    atomic.Uint64
}

// Add records n events. Safe (and free) on a nil Counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reports the lifetime count; 0 on a nil Counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Hist is a labeled histogram handle. Observe on nil is a no-op, so
// instrumentation can be wired unconditionally and enabled by registration.
// The scraper snapshots cumulative p50/p99 series from it.
type Hist struct {
	meta Meta
	h    *metrics.Hist
}

// Observe records one latency sample. Safe (and free) on a nil Hist.
func (h *Hist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.h.Observe(d)
}

// Snapshot exposes the underlying histogram (nil-safe, may return nil).
func (h *Hist) Snapshot() *metrics.Hist {
	if h == nil {
		return nil
	}
	return h.h
}

// Registry holds every registered probe in insertion order. Registration
// and structural reads are mutex-guarded and counters are atomic, so a live
// exporter may scrape the registry concurrently with the simulation
// updating it. Gauge, rate and histogram probes read engine-owned state:
// sampling those concurrently with a running engine is only safe while the
// engine is paused (the scraper runs in engine context; nadino-svc snapshots
// under its pacer lock).
type Registry struct {
	mu     sync.RWMutex
	probes []probe
	keys   map[string]struct{}
	help   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]struct{}), help: make(map[string]string)}
}

func (r *Registry) add(p probe) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := p.meta.Key()
	if _, dup := r.keys[key]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", key))
	}
	r.keys[key] = struct{}{}
	r.probes = append(r.probes, p)
}

// snapshot returns the registered probes in insertion order. The returned
// slice is safe against concurrent registration (probes are append-only).
func (r *Registry) snapshot() []probe {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.probes[:len(r.probes):len(r.probes)]
}

// SetHelp attaches exposition help text to a metric name (all labeled
// variants share it). Exporters fall back to a generated line when unset.
func (r *Registry) SetHelp(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// helpFor resolves a metric's help text.
func (r *Registry) helpFor(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if h, ok := r.help[name]; ok {
		return h
	}
	return "NADINO simulation metric " + name + "."
}

// Counter registers and returns a labeled counter handle. The scraper
// reports it as a windowed rate (events/second).
func (r *Registry) Counter(name string, kv ...string) *Counter {
	c := &Counter{meta: Meta{Name: name, Labels: labels(kv)}}
	r.add(probe{meta: c.meta, kind: kindCounter, counter: c})
	return c
}

// Gauge registers a pull-based gauge: fn is invoked at each scrape and its
// value recorded as-is. fn runs in engine context and must not block.
func (r *Registry) Gauge(name string, fn func() float64, kv ...string) {
	r.add(probe{meta: Meta{Name: name, Labels: labels(kv)}, kind: kindGauge, fn: fn})
}

// Rate registers a derivative gauge over a cumulative quantity: fn returns
// a monotone total (e.g. busy seconds, bytes sent) and the scraper records
// its per-second derivative over each scrape window. Registering a core's
// cumulative BusyTime().Seconds() yields its utilization directly.
func (r *Registry) Rate(name string, fn func() float64, kv ...string) {
	r.add(probe{meta: Meta{Name: name, Labels: labels(kv)}, kind: kindRate, fn: fn})
}

// Hist registers and returns a labeled histogram handle. The scraper
// snapshots cumulative `<name>.p50` and `<name>.p99` series from it.
func (r *Registry) Hist(name string, kv ...string) *Hist {
	h := &Hist{meta: Meta{Name: name, Labels: labels(kv)}, h: metrics.NewHist()}
	r.add(probe{meta: h.meta, kind: kindHist, hist: h.h})
	return h
}

// HistFrom registers an existing histogram (e.g. a cluster's per-chain
// latency hist) for scraping without changing who owns or feeds it.
func (r *Registry) HistFrom(name string, h *metrics.Hist, kv ...string) {
	r.add(probe{meta: Meta{Name: name, Labels: labels(kv)}, kind: kindHist, hist: h})
}

// Len reports registered probes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.probes)
}

// BuildVersion identifies the NADINO tree in build_info expositions. It is a
// var so release tooling can stamp it with -ldflags "-X ...".
var BuildVersion = "dev"

// BuildInfo registers the conventional `build_info` gauge (constant 1,
// version/goversion labels) plus the `process.uptime_seconds` gauge for
// the virtual clock (how far the simulation has advanced). Every rig and
// the nadino-svc daemon call this once so dashboards can join series
// against the emitting build. A rig's exports stay a pure function of its
// seed; nadino-svc adds the wall-clock uptime itself.
func (r *Registry) BuildInfo(virtualNow func() time.Duration) {
	r.SetHelp("build_info", "Constant 1; labels carry the NADINO build and Go runtime version.")
	r.SetHelp("process.uptime_seconds", "Process uptime by clock: virtual simulation time or wall time.")
	r.Gauge("build_info", func() float64 { return 1 },
		"version", BuildVersion, "goversion", runtime.Version())
	r.Gauge("process.uptime_seconds", func() float64 {
		return virtualNow().Seconds()
	}, "clock", "virtual")
}
