package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// This file is the repository's one Prometheus text writer: it renders the
// registry's current state directly (counter totals, gauge callbacks, full
// histogram bucket/sum/count). nadino-svc serves it from /metrics on every
// scrape, and ExportDir writes it as each profile's end-of-run `.prom`
// file, so both follow the text exposition format 0.0.4 fully: # HELP and
// # TYPE per family, families contiguous (never interleaved), counters
// suffixed _total, histograms as cumulative _bucket{le=...} plus _sum and
// _count.
//
// Gauge, rate and histogram probes read engine-owned state; callers off the
// engine goroutine must hold the engine paused (nadino-svc renders under
// its pacer lock). Counter reads are atomic and safe at any time.

// ContentType is the Content-Type a conforming scrape endpoint must send
// with this exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// promBuckets are the upper bounds (seconds) used to expose the internal
// 1024-bucket log-spaced histogram as a conventional Prometheus bucket
// ladder, ~10µs to 10s. The internal resolution (~2% per bucket) is much
// finer than the ladder, so cumulative counts at these bounds are exact at
// ladder resolution.
var promBuckets = []time.Duration{
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond,
	250 * time.Microsecond, 500 * time.Microsecond, 1 * time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, 1 * time.Second,
	2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// promName maps a metric name onto the Prometheus exposition charset,
// prefixed with the repository namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("nadino_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set (no braces); extra appends k=v pairs after
// the probe's own labels.
func promLabels(ls []Label, extra ...string) string {
	parts := make([]string, 0, len(ls)+len(extra)/2)
	for _, l := range ls {
		parts = append(parts, fmt.Sprintf("%s=%q", l.Key, l.Value))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	return strings.Join(parts, ",")
}

// promSeries renders one exposition line: name, optional label set, value.
func promSeries(bw *bufio.Writer, name, labelSet, value string) {
	if labelSet == "" {
		fmt.Fprintf(bw, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(bw, "%s{%s} %s\n", name, labelSet, value)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders the registry's current state in the Prometheus
// text exposition format 0.0.4. Output order is registration
// order grouped by family, so it is deterministic for a fixed registry.
func WritePrometheus(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	probes := r.snapshot()

	// Group by family in first-appearance order: the format forbids
	// interleaving series of one family with another, and registration
	// order interleaves freely (per-node loops register several families
	// round-robin).
	type family struct {
		name   string // original metric name (help key)
		probes []probe
	}
	var families []family
	index := make(map[string]int)
	for _, p := range probes {
		i, ok := index[p.meta.Name]
		if !ok {
			i = len(families)
			index[p.meta.Name] = i
			families = append(families, family{name: p.meta.Name})
		}
		families[i].probes = append(families[i].probes, p)
	}

	for _, f := range families {
		kind := f.probes[0].kind
		base := promName(f.name)
		switch kind {
		case kindCounter, kindRate:
			// Rates are cumulative callbacks (busy seconds, bytes);
			// both expose as monotone counters and Prometheus rate()
			// recovers the derivative the scraper computes internally.
			name := base + "_total"
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(r.helpFor(f.name)))
			fmt.Fprintf(bw, "# TYPE %s counter\n", name)
			for _, p := range f.probes {
				var v string
				if p.kind == kindCounter {
					v = fmt.Sprintf("%d", p.counter.Value())
				} else {
					v = fnum(p.fn())
				}
				promSeries(bw, name, promLabels(p.meta.Labels), v)
			}
		case kindGauge:
			fmt.Fprintf(bw, "# HELP %s %s\n", base, escapeHelp(r.helpFor(f.name)))
			fmt.Fprintf(bw, "# TYPE %s gauge\n", base)
			for _, p := range f.probes {
				promSeries(bw, base, promLabels(p.meta.Labels), fnum(p.fn()))
			}
		case kindHist:
			name := base + "_seconds"
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(r.helpFor(f.name)))
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			for _, p := range f.probes {
				h := p.hist
				for _, ub := range promBuckets {
					promSeries(bw, name+"_bucket",
						promLabels(p.meta.Labels, "le", fnum(ub.Seconds())),
						fmt.Sprintf("%d", h.CumulativeLE(ub)))
				}
				promSeries(bw, name+"_bucket",
					promLabels(p.meta.Labels, "le", "+Inf"),
					fmt.Sprintf("%d", h.Count()))
				promSeries(bw, name+"_sum", promLabels(p.meta.Labels), fnum(h.Sum().Seconds()))
				promSeries(bw, name+"_count", promLabels(p.meta.Labels), fmt.Sprintf("%d", h.Count()))
			}
		}
	}
	return bw.Flush()
}
