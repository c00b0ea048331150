package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nadino/internal/sim"
)

func TestMetaKey(t *testing.T) {
	m := Meta{Name: "dne.keeper_debt", Labels: []Label{{"node", "nodeA"}, {"tenant", "t1"}}}
	if got, want := m.Key(), "dne.keeper_debt{node=nodeA,tenant=t1}"; got != want {
		t.Fatalf("key %q, want %q", got, want)
	}
	if got := (Meta{Name: "sim.pending"}).Key(); got != "sim.pending" {
		t.Fatalf("unlabeled key %q", got)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tx", "node", "a")
	reg.Counter("tx", "node", "b") // different labels: fine
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Gauge("tx", func() float64 { return 0 }, "node", "a")
}

func TestCounterNilSafeAndZeroAlloc(t *testing.T) {
	var nilC *Counter
	nilC.Add(3) // must not panic
	if nilC.Value() != 0 {
		t.Fatal("nil counter reported non-zero")
	}
	c := NewRegistry().Counter("x")
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(1) }); allocs != 0 {
		t.Fatalf("Counter.Add allocates %v per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { nilC.Add(1) }); allocs != 0 {
		t.Fatalf("nil Counter.Add allocates %v per op, want 0", allocs)
	}
}

func TestHistNilSafe(t *testing.T) {
	var h *Hist
	h.Observe(time.Millisecond) // must not panic
	if h.Snapshot() != nil {
		t.Fatal("nil hist snapshot not nil")
	}
}

// buildRun wires a small deterministic simulation with all four probe
// kinds and runs it for 10ms with a 1ms scrape period.
func buildRun(seed int64) *Scraper {
	eng := sim.NewEngine(seed)
	reg := NewRegistry()
	c := reg.Counter("events", "node", "a")
	depth := 0
	reg.Gauge("depth", func() float64 { return float64(depth) })
	var busy time.Duration
	reg.Rate("util", func() float64 { return busy.Seconds() })
	h := reg.Hist("rtt", "tenant", "t1")
	// 4 events and 0.5ms of busy time per millisecond; depth follows time.
	eng.Ticker(250*time.Microsecond, func(now time.Duration) {
		c.Add(1)
		busy += 125 * time.Microsecond
		depth = int(now / time.Millisecond)
		h.Observe(time.Duration(eng.Rand().Intn(1000)+100) * time.Microsecond)
	})
	sc := reg.Scrape(eng, time.Millisecond)
	eng.RunUntil(10 * time.Millisecond)
	return sc
}

func TestScraperSampling(t *testing.T) {
	sc := buildRun(7)
	series := sc.Series()
	// counter + gauge + rate + hist(p50,p99) = 5 series.
	if len(series) != 5 {
		t.Fatalf("got %d series, want 5", len(series))
	}
	for _, s := range series {
		if s.Len() != 10 {
			t.Fatalf("series %s has %d points, want 10", s.Name, s.Len())
		}
	}
	ev := sc.Lookup("events{node=a}")
	if ev == nil {
		t.Fatal("counter series not found by key")
	}
	// 4 events/ms = 4000 events/s in every full window.
	if got := ev.Points[3].V; got != 4000 {
		t.Fatalf("counter rate %v, want 4000", got)
	}
	util := sc.Lookup("util")
	if util == nil {
		t.Fatal("rate series not found")
	}
	// 0.5ms busy per 1ms window = 0.5 utilization.
	if got := util.Points[3].V; got < 0.49 || got > 0.51 {
		t.Fatalf("utilization %v, want ~0.5", got)
	}
	p99 := sc.Lookup("rtt.p99{tenant=t1}")
	if p99 == nil || p99.Points[9].V <= 0 {
		t.Fatal("hist p99 series missing or zero")
	}
	if sc.Lookup("no.such.series") != nil {
		t.Fatal("lookup of unknown key returned a series")
	}
}

func TestScraperSummary(t *testing.T) {
	sc := buildRun(7)
	sum := sc.Summary()
	if len(sum) != 5 {
		t.Fatalf("summary has %d entries, want 5", len(sum))
	}
	if sum[0].Key != "events{node=a}" || sum[0].Last != 4000 {
		t.Fatalf("summary[0] = %+v", sum[0])
	}
	if sum[1].Key != "depth" || sum[1].Max < sum[1].Mean {
		t.Fatalf("summary[1] = %+v", sum[1])
	}
}

func TestExportDeterminism(t *testing.T) {
	render := func(seed int64) (csv, js, prom, dash string) {
		sc := buildRun(seed)
		var b1, b2, b3, b4 bytes.Buffer
		if err := WriteCSV(&b1, sc); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&b2, sc); err != nil {
			t.Fatal(err)
		}
		if err := WritePrometheus(&b3, sc.Registry()); err != nil {
			t.Fatal(err)
		}
		if err := WriteDashboard(&b4, []Profile{{Name: "run", Scraper: sc}}); err != nil {
			t.Fatal(err)
		}
		return b1.String(), b2.String(), b3.String(), b4.String()
	}
	c1, j1, p1, d1 := render(42)
	c2, j2, p2, d2 := render(42)
	if c1 != c2 || j1 != j2 || p1 != p2 || d1 != d2 {
		t.Fatal("exports differ across identical runs")
	}
	c3, _, _, _ := render(43)
	if c1 == c3 {
		t.Fatal("different seeds produced identical CSV (suspicious)")
	}
}

func TestExportFormats(t *testing.T) {
	sc := buildRun(7)

	var csv bytes.Buffer
	if err := WriteCSV(&csv, sc); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "series,t_us,value" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != 1+5*10 {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+5*10)
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, sc); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("series JSON invalid: %v", err)
	}
	if len(decoded) != 5 {
		t.Fatalf("JSON has %d series, want 5", len(decoded))
	}

	var prom bytes.Buffer
	if err := WritePrometheus(&prom, sc.Registry()); err != nil {
		t.Fatal(err)
	}
	ps := prom.String()
	// Counters expose their running total (4 events/ms for 10ms) and
	// histograms their full bucket ladder, not scraper rates.
	for _, want := range []string{
		"# TYPE nadino_events_total counter",
		`nadino_events_total{node="a"} 40`,
		"# TYPE nadino_rtt_seconds histogram",
		`nadino_rtt_seconds_bucket{tenant="t1",le="+Inf"} 40`,
	} {
		if !strings.Contains(ps, want) {
			t.Fatalf("prom output missing %q:\n%s", want, ps)
		}
	}

	tracks := CounterTracks("run/", sc)
	if len(tracks) != 5 || tracks[0].Name != "run/events{node=a}" || len(tracks[0].Points) != 10 {
		t.Fatalf("counter tracks malformed: %d tracks, first %+v", len(tracks), tracks[0].Name)
	}

	var dash bytes.Buffer
	if err := WriteDashboard(&dash, []Profile{{Name: "run", Scraper: sc}}); err != nil {
		t.Fatal(err)
	}
	ds := dash.String()
	if !strings.Contains(ds, "<svg") || !strings.Contains(ds, "<polyline") {
		t.Fatal("dashboard missing SVG charts")
	}
	if strings.Contains(ds, "<script") {
		t.Fatal("dashboard must be script-free")
	}
}

func TestExportDir(t *testing.T) {
	sc := buildRun(7)
	dir := t.TempDir()
	files, err := ExportDir(dir, []Profile{{Name: "res-storm/storm", Scraper: sc}})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 {
		t.Fatalf("wrote %d files, want 6: %v", len(files), files)
	}
	for _, f := range files {
		if strings.Contains(f, "res-storm/storm") {
			t.Fatalf("unsanitized profile name in path %q", f)
		}
	}
}

// TestBuildInfo checks the conventional build_info and virtual-clock uptime
// gauges land in the exposition, and that no wall-clock series does.
func TestBuildInfo(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.BuildInfo(eng.Now)
	eng.RunUntil(3 * time.Second)
	var buf strings.Builder
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE nadino_build_info gauge",
		`nadino_build_info{version="dev",goversion="go`,
		`nadino_process_uptime_seconds{clock="virtual"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `clock="wall"`) {
		t.Fatalf("exposition carries a wall-clock series:\n%s", out)
	}
}
