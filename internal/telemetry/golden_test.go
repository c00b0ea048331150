package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nadino/internal/sim"
	"nadino/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the exporter golden files")

// goldenScraper builds a fixed-seed world exercising every probe kind —
// counter, gauge, rate and histogram — and scrapes it for 10ms of virtual
// time. Everything downstream of this (CSV, Prometheus text, Chrome
// counters) must be a pure function of it, byte for byte.
func goldenScraper(t *testing.T) *Scraper {
	t.Helper()
	eng := sim.NewEngine(42)
	reg := NewRegistry()

	reqs := reg.Counter("req.count", "tenant", "amber")
	depth := 0
	reg.Gauge("queue.depth", func() float64 { return float64(depth) }, "node", "nodeA")
	busy := time.Duration(0)
	reg.Rate("core.busy", func() float64 { return busy.Seconds() }, "core", "worker")
	lat := reg.Hist("req.lat", "chain", "checkout")

	eng.Ticker(100*time.Microsecond, func(now time.Duration) {
		reqs.Add(1 + uint64(eng.Rand().Intn(3)))
		depth = eng.Rand().Intn(16)
		busy += time.Duration(20+eng.Rand().Intn(60)) * time.Microsecond
		lat.Observe(time.Duration(50+eng.Rand().Intn(500)) * time.Microsecond)
	})
	sc := reg.Scrape(eng, 500*time.Microsecond)
	eng.RunUntil(10 * time.Millisecond)
	sc.Stop()
	return sc
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry/ -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file (%d vs %d bytes).\n"+
			"A diff here means exporter output is no longer deterministic, or the format changed;\n"+
			"if the change is intentional, regenerate with `go test ./internal/telemetry/ -update`.\n--- got\n%s",
			name, len(got), len(want), got)
	}
}

// TestGoldenCSV pins the long-form CSV export byte-for-byte.
func TestGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, goldenScraper(t)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.series.csv", buf.Bytes())
}

// TestGoldenLivePrometheus pins the Prometheus exposition (counter totals,
// histogram bucket ladder) byte-for-byte — the bytes nadino-svc serves from
// /metrics and ExportDir writes as `.prom` for this registry state.
func TestGoldenLivePrometheus(t *testing.T) {
	var buf bytes.Buffer
	sc := goldenScraper(t)
	if err := WritePrometheus(&buf, sc.Registry()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.live.prom", buf.Bytes())
}

// TestGoldenChromeCounters pins the Chrome counter-track trace export
// byte-for-byte.
func TestGoldenChromeCounters(t *testing.T) {
	var buf bytes.Buffer
	counters := CounterTracks("golden/", goldenScraper(t))
	if err := trace.WriteChrome(&buf, nil, counters); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.counters.trace.json", buf.Bytes())
}

// TestGoldenRebuildStable re-derives the whole pipeline twice in-process:
// the golden files pin cross-run determinism, this pins cross-build of the
// same engine state (catching map-iteration or pointer-order leaks).
func TestGoldenRebuildStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteCSV(&a, goldenScraper(t)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, goldenScraper(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical worlds exported different CSV bytes")
	}
}
