package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nadino/internal/core"
	"nadino/internal/sim"
	"nadino/internal/telemetry"
)

// testCluster is a small two-node NADINO deployment for daemon tests.
func testCluster() *core.Cluster {
	return core.NewCluster(core.Config{
		System: core.NadinoDNE,
		Nodes:  []string{"node1", "node2"},
		Functions: []core.FunctionSpec{
			{Name: "hello", Node: "node1", Service: 20 * time.Microsecond},
			{Name: "world", Node: "node2", Service: 15 * time.Microsecond},
		},
		Chains: []core.ChainSpec{{
			Name: "greet", Entry: "hello", ReqBytes: 256, RespBytes: 1024,
			Calls: []core.Call{{Callee: "world", ReqBytes: 512, RespBytes: 2048}},
		}},
	})
}

// startServer boots a daemon on a loopback port with aggressive time
// dilation so virtual seconds pass in wall milliseconds.
func startServer(t *testing.T, opts Options) *Server {
	t.Helper()
	clu := testCluster()
	t.Cleanup(clu.Eng.Stop)
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.Dilation == 0 {
		opts.Dilation = 200
	}
	s, err := New(clu, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// waitReady polls /readyz until the cluster finishes setup.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("cluster never became ready")
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, body
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, out
}

// TestServerEndToEnd drives the whole daemon surface over real HTTP: boot,
// readiness, live metrics, invokes, chaos hot-reload, management calls and
// the flight dump.
func TestServerEndToEnd(t *testing.T) {
	s := startServer(t, Options{Chain: "greet", RPS: 2000})
	base := "http://" + s.Addr()
	waitReady(t, base)

	// Health never waits on the engine.
	if resp, _ := getBody(t, base+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	// Direct invokes: known chain accepted, unknown refused, both without
	// tripping SubmitChain's unknown-chain panic.
	if resp, _ := postJSON(t, base+"/invoke/greet?client=7", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/invoke/greet: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, base+"/invoke/no-such-chain", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/invoke/no-such-chain: got %d, want 404", resp.StatusCode)
	}

	// The built-in generator plus the explicit invoke must complete chains;
	// give the pacer a little wall time to push virtual time forward.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var done uint64
		s.pacer.Do(func() { done = s.clu.Completed.Total() })
		if done >= 10 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Live Prometheus exposition: right content type, HELP/TYPE pairs,
	// counter and histogram families, build_info and both uptime clocks.
	resp, body := getBody(t, base+"/metrics")
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
		t.Fatalf("metrics content type %q, want %q", got, telemetry.ContentType)
	}
	text := string(body)
	for _, want := range []string{
		"# HELP nadino_cluster_goodput_total",
		"# TYPE nadino_cluster_goodput_total counter",
		"# TYPE nadino_chain_latency_seconds histogram",
		"nadino_chain_latency_seconds_bucket{chain=\"greet\",le=\"+Inf\"}",
		"nadino_chain_latency_seconds_sum",
		"nadino_chain_latency_seconds_count",
		"nadino_build_info{",
		"nadino_process_uptime_seconds{clock=\"virtual\"}",
		"nadino_process_uptime_seconds{clock=\"wall\"}",
		"nadino_svc_pacer_lag_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// Chaos hot-reload: a relative-time schedule installs against the
	// running engine and the injector applies it (visible via status).
	sched := `{"events": [
		{"at_ms": 1, "for_ms": 2, "fault": {"kind": "link-down", "from": "node1", "to": "node2"}},
		{"at_ms": 5, "fault": {"kind": "qp-error", "target": "qp@node1", "count": 1}}
	]}`
	if resp, out := postJSON(t, base+"/api/v1/chaos", sched); resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/chaos: %d: %s", resp.StatusCode, out)
	}
	// An at_ms whose Duration conversion would overflow must be refused
	// before it reaches the engine.
	if resp, out := postJSON(t, base+"/api/v1/chaos",
		`{"events":[{"at_ms":1e13,"fault":{"kind":"node-down","node":"node1"}}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/api/v1/chaos past-horizon schedule: %d: %s", resp.StatusCode, out)
	}
	if resp, out := postJSON(t, base+"/api/v1/chaos", `{"events": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty chaos schedule accepted: %d: %s", resp.StatusCode, out)
	}

	// Management: tenant listing works; reroute validates its inputs.
	if resp, out := getBody(t, base+"/api/v1/tenants"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/tenants: %d: %s", resp.StatusCode, out)
	}
	if resp, _ := postJSON(t, base+"/api/v1/reroute", `{"fn": "nope", "node": "node1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("reroute accepted an unknown function")
	}
	if resp, out := postJSON(t, base+"/api/v1/reroute", `{"fn": "world", "node": "node2"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("reroute refused the hosting node: %d: %s", resp.StatusCode, out)
	}

	// Status reflects the run so far.
	var st struct {
		Ready        bool    `json:"ready"`
		Completed    uint64  `json:"completed"`
		Invoked      uint64  `json:"invoked"`
		Dilation     float64 `json:"dilation"`
		FlightEvents uint64  `json:"flightrec_events"`
	}
	_, body = getBody(t, base+"/api/v1/status")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status parse: %v in %s", err, body)
	}
	if !st.Ready || st.Invoked == 0 || st.Dilation != 200 {
		t.Fatalf("status: %+v", st)
	}

	// Flight dump, both formats. The chaos faults above plus the management
	// marks guarantee the ring is not empty.
	resp, body = getBody(t, base+"/api/v1/flightdump?format=text&last=50")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("flightrec:")) {
		t.Fatalf("text flightdump: %d: %s", resp.StatusCode, body)
	}
	_, body = getBody(t, base+"/api/v1/flightdump")
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("chrome flightdump parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("chrome flightdump has no events")
	}

	// pprof rides along.
	if resp, _ := getBody(t, base+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", resp.StatusCode)
	}
}

// TestWatchdogBreachDumps proves a hot-added SLO rule that can never hold
// fires the live watchdog and auto-dumps the flight recorder to disk.
func TestWatchdogBreachDumps(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Options{Chain: "greet", RPS: 500, DumpDir: dir})
	base := "http://" + s.Addr()
	waitReady(t, base)

	// svc.invoked is a non-negative gauge, so "invoked < -1" breaches on
	// the next scrape window.
	rule := `{"name": "impossible", "series": "svc.invoked", "op": "<", "bound": -1}`
	if resp, out := postJSON(t, base+"/api/v1/watchdog", rule); resp.StatusCode != http.StatusOK {
		t.Fatalf("watchdog add: %d: %s", resp.StatusCode, out)
	}
	if resp, _ := postJSON(t, base+"/api/v1/watchdog", `{"name": "bad", "series": "x", "op": "!!"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("watchdog accepted a bogus operator")
	}

	deadline := time.Now().Add(10 * time.Second)
	var violations []telemetry.Violation
	for time.Now().Before(deadline) {
		violations = s.dog.Violations()
		if len(violations) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(violations) == 0 {
		t.Fatal("impossible rule never fired")
	}
	if violations[0].Rule != "impossible" {
		t.Fatalf("violation %+v", violations[0])
	}

	// The breach handler writes a chrome trace and then a text report on
	// the engine goroutine after it records the violation, so wait (within
	// the same deadline) until both are there and non-empty: the .txt is
	// created only once the .trace.json is closed.
	written := func(paths []string) bool {
		for _, m := range paths {
			if fi, err := os.Stat(m); err != nil || fi.Size() == 0 {
				return false
			}
		}
		return true
	}
	var matches []string
	var err error
	for {
		matches, err = filepath.Glob(filepath.Join(dir, "breach-001-impossible.*"))
		if err == nil && len(matches) == 2 && written(matches) || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil || len(matches) != 2 {
		t.Fatalf("breach dump files: %v (err %v)", matches, err)
	}
	for _, m := range matches {
		if fi, err := os.Stat(m); err != nil || fi.Size() == 0 {
			t.Fatalf("breach dump %s empty or unreadable", m)
		}
	}

	// The API view agrees.
	_, body := getBody(t, base+"/api/v1/watchdog")
	var view struct {
		Rules      []telemetry.Rule      `json:"rules"`
		Violations []telemetry.Violation `json:"violations"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("watchdog view parse: %v", err)
	}
	if len(view.Rules) != 1 || len(view.Violations) == 0 {
		t.Fatalf("watchdog view: %d rules, %d violations", len(view.Rules), len(view.Violations))
	}
}

// TestSlowClientDisconnected holds a connection open with half a request
// header: the server must drop it after readHeaderTimeout while /healthz
// keeps answering other clients meanwhile.
func TestSlowClientDisconnected(t *testing.T) {
	s := startServer(t, Options{})
	base := "http://" + s.Addr()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := conn.Read(make([]byte, 1))
		closed <- err
	}()
	for time.Since(start) < readHeaderTimeout/2 {
		if resp, body := getBody(t, base+"/healthz"); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
			t.Fatalf("/healthz while a slow client holds a connection: %d %q", resp.StatusCode, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	select {
	case <-closed:
		if held := time.Since(start); held < readHeaderTimeout/2 {
			t.Fatalf("slow client dropped after %v, before the header timeout", held)
		}
	case <-time.After(readHeaderTimeout + 5*time.Second):
		t.Fatal("server never disconnected a client that sent half a header")
	}
}

// TestPacer covers the real-time bridge on its own: virtual time tracks
// wall time scaled by dilation, Do serializes with the advance loop, and
// Stop is safe in any order.
func TestPacer(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	var ticks int
	eng.Ticker(time.Millisecond, func(time.Duration) { ticks++ })

	p := NewPacer(eng, 100, 5*time.Millisecond, time.Millisecond)
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && p.VirtualNow() < 100*time.Millisecond {
		time.Sleep(2 * time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent

	if v := p.VirtualNow(); v < 100*time.Millisecond {
		t.Fatalf("virtual clock only reached %v at dilation 100", v)
	}
	var now time.Duration
	var seen int
	p.Do(func() { now = eng.Now(); seen = ticks })
	if now < 100*time.Millisecond || seen < 100 {
		t.Fatalf("engine at %v with %d ticks", now, seen)
	}
}

// TestPacerStopBeforeStart must not deadlock waiting for a loop that never
// launched.
func TestPacerStopBeforeStart(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	p := NewPacer(eng, 1, 0, 0)
	done := make(chan struct{})
	go func() { p.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop before Start deadlocked")
	}
}

// TestNewRefusesBadGenerator pins the generator checks: an unknown chain
// or a rate with no whole nanosecond between requests fails New instead
// of panicking on the first tick (or at startup).
func TestNewRefusesBadGenerator(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chain string
		rps   float64
		ok    bool
	}{
		{"unknown chain", "nope", 100, false},
		{"rate rounds to zero", "greet", 3e9, false},
		{"infinite rate", "greet", math.Inf(1), false},
		{"valid", "greet", 100, true},
		{"generator off", "nope", 0, true},
	} {
		clu := testCluster()
		_, err := New(clu, Options{Addr: "127.0.0.1:0", Chain: tc.chain, RPS: tc.rps})
		clu.Eng.Stop()
		if (err == nil) != tc.ok {
			t.Errorf("%s: New(-chain %q -rps %v) error = %v, want ok=%v", tc.name, tc.chain, tc.rps, err, tc.ok)
		}
	}
}
