package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nadino/internal/telemetry"
)

// renderTelemetry runs res-storm with telemetry on and renders every sunk
// scraper's full export (CSV + the registry's Prometheus exposition) into
// one byte stream, in sink order.
func renderTelemetry(t *testing.T, o Opts) []byte {
	t.Helper()
	var buf bytes.Buffer
	o.Telemetry = true
	o.TelemetrySink = func(name string, sc *telemetry.Scraper) {
		buf.WriteString("== " + name + " ==\n")
		if err := telemetry.WriteCSV(&buf, sc); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WritePrometheus(&buf, sc.Registry()); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range RunResStorm(o) {
		tb.Print(&buf)
	}
	return buf.Bytes()
}

// TestTelemetryCaptures asserts the scraper actually observed the run: the
// export names both profiles and carries non-trivial series data.
func TestTelemetryCaptures(t *testing.T) {
	out := renderTelemetry(t, resOpts)
	for _, want := range []string{
		"== res-storm/control ==",
		"== res-storm/storm ==",
		"tenant.goodput{tenant=tenant1}",
		"dne.worker_util{node=nodeA}",
		"rdma.icm_hit_rate{node=nodeB}",
		"tenant.rtt.p99{tenant=tenant1}",
		"nadino_tenant_goodput_total{",
		"echo RTT merged across runs",
	} {
		if !bytes.Contains(out, []byte(want)) {
			t.Fatalf("telemetry export missing %q", want)
		}
	}
}

// TestTelemetryDeterminism is the telemetry determinism fence: for a fixed
// seed the full export bytes must be identical run-to-run AND identical
// between sequential and parallel sweep execution — telemetry must never
// force workers=1 the way tracing does.
func TestTelemetryDeterminism(t *testing.T) {
	a := renderTelemetry(t, resOpts)
	b := renderTelemetry(t, resOpts)
	if !bytes.Equal(a, b) {
		d := firstDiff(a, b)
		t.Fatalf("repeated telemetry run diverged at byte %d:\n1st: %q\n2nd: %q", d, excerpt(a, d), excerpt(b, d))
	}
	par := resOpts
	par.Parallel = 4
	c := renderTelemetry(t, par)
	if !bytes.Equal(a, c) {
		d := firstDiff(a, c)
		t.Fatalf("parallel telemetry run diverged at byte %d:\nseq: %q\npar: %q", d, excerpt(a, d), excerpt(c, d))
	}
}

// TestTelemetryExportsRegenerate runs clone-chaos in quick mode twice and
// exports each run with telemetry.ExportDir, as nadino-bench -telemetry
// does: every file of the two directories (Prometheus exposition, series
// CSV and JSON, summary, Chrome counters and dashboard) must be
// byte-identical, so no rig may export a wall-clock series.
func TestTelemetryExportsRegenerate(t *testing.T) {
	export := func() (string, []string) {
		var profiles []telemetry.Profile
		o := Opts{Quick: true, Seed: 1, Telemetry: true}
		o.TelemetrySink = func(name string, sc *telemetry.Scraper) {
			profiles = append(profiles, telemetry.Profile{Name: name, Scraper: sc})
		}
		RunCloneChaos(o)
		dir := t.TempDir()
		written, err := telemetry.ExportDir(dir, profiles)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(written))
		for i, p := range written {
			names[i] = filepath.Base(p)
		}
		return dir, names
	}
	dirA, a := export()
	dirB, b := export()
	if !slices.Equal(a, b) || len(a) == 0 {
		t.Fatalf("exported files differ between runs:\n%v\n%v", a, b)
	}
	for _, name := range a {
		x, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			d := firstDiff(x, y)
			t.Fatalf("%s diverged at byte %d:\n1st: %q\n2nd: %q", name, d, excerpt(x, d), excerpt(y, d))
		}
	}
}
