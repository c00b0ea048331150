// nadino-svc runs a simulated NADINO cluster as a live daemon: the pacer
// bridges the deterministic virtual clock to wall time (optionally dilated),
// while HTTP exposes a real-time Prometheus /metrics endpoint, health and
// readiness probes, pprof, a management API for hot-reloading chaos
// schedules, tenant weights, routes and SLO rules, and the flight recorder
// as an on-demand Chrome trace.
//
// Quickstart:
//
//	nadino-svc -template > cluster.json
//	nadino-svc -config cluster.json -addr 127.0.0.1:9420 -rps 2000 &
//	curl -s 127.0.0.1:9420/metrics | head
//	curl -s -X POST 127.0.0.1:9420/api/v1/chaos -d @schedule.json
//	curl -s '127.0.0.1:9420/api/v1/flightdump?format=text&last=40'
//
// -smoke runs the whole sequence in-process against an ephemeral port and
// exits 0/1 — the CI end-to-end check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nadino/internal/core"
	"nadino/internal/svc"
	"nadino/internal/telemetry"
)

const template = `{
  "system": "nadino-dne",
  "tenant": "demo",
  "nodes": ["node1", "node2"],
  "functions": [
    {"name": "front", "node": "node1", "service": "25us", "workers": 16},
    {"name": "back", "node": "node2", "service": "100us", "workers": 4}
  ],
  "chains": [
    {"name": "main", "entry": "front", "req_bytes": 512, "resp_bytes": 2048,
     "calls": [
       {"callee": "back", "req_bytes": 1024, "resp_bytes": 1024}
     ]}
  ],
  "ingress_workers": 2,
  "seed": 1
}
`

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nadino-svc: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	cfgPath := flag.String("config", "", "cluster config JSON (see -template)")
	addr := flag.String("addr", "127.0.0.1:9420", "HTTP listen address")
	dilation := flag.Float64("dilation", 1.0, "virtual seconds advanced per wall second")
	slice := flag.Duration("slice", 10*time.Millisecond, "max virtual time per engine hold (handler latency bound)")
	scrape := flag.Duration("scrape", 10*time.Millisecond, "telemetry scrape period (virtual time)")
	retain := flag.Int("retain", 600, "samples retained per series")
	chain := flag.String("chain", "", "built-in load generator chain (default: first chain in config)")
	rps := flag.Float64("rps", 0, "built-in generator rate, requests per virtual second (0 = external load only)")
	dumpDir := flag.String("dump-dir", "", "write flight-recorder dumps here on SLO breach (empty = ring only)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault injector seed")
	smoke := flag.Bool("smoke", false, "run the in-process end-to-end smoke sequence and exit")
	printTemplate := flag.Bool("template", false, "print a starter config and exit")
	flag.Parse()

	if *printTemplate {
		fmt.Print(template)
		return
	}

	var cfg core.Config
	if *cfgPath == "" {
		if !*smoke {
			fatalf("-config is required (try -template); -smoke runs without one")
		}
		c, err := core.LoadConfig(strings.NewReader(template))
		if err != nil {
			fatalf("builtin template: %v", err)
		}
		cfg = c
	} else {
		f, err := os.Open(*cfgPath)
		if err != nil {
			fatalf("%v", err)
		}
		c, err := core.LoadConfig(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		cfg = c
	}
	if *chain == "" && len(cfg.Chains) > 0 {
		*chain = cfg.Chains[0].Name
	}

	opts := svc.Options{
		Addr:          *addr,
		Dilation:      *dilation,
		Slice:         *slice,
		ScrapePeriod:  *scrape,
		RetainSamples: *retain,
		DumpDir:       *dumpDir,
		Chain:         *chain,
		RPS:           *rps,
		ChaosSeed:     *chaosSeed,
	}
	if *smoke {
		opts.Addr = "127.0.0.1:0"
		if opts.RPS == 0 {
			opts.RPS = 1000
		}
		opts.Dilation = 100
		os.Exit(runSmoke(cfg, opts))
	}

	clu := core.NewCluster(cfg)
	s, err := svc.New(clu, opts)
	if err != nil {
		fatalf("%v", err)
	}
	if err := s.Start(); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("nadino-svc: serving %s on http://%s (dilation %gx, generator %s@%g rps)\n",
		cfg.System, s.Addr(), opts.Dilation, orNone(opts.Chain, opts.RPS), opts.RPS)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("nadino-svc: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fatalf("shutdown: %v", err)
	}
	clu.Eng.Stop()
}

func orNone(chain string, rps float64) string {
	if rps <= 0 || chain == "" {
		return "off"
	}
	return chain
}

// runSmoke is the CI end-to-end: boot the daemon on an ephemeral port, wait
// for readiness, scrape live metrics, hot-install a chaos schedule, pull a
// flight dump, and shut down cleanly. Returns the process exit code.
func runSmoke(cfg core.Config, opts svc.Options) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "smoke: FAIL: "+format+"\n", args...)
		return 1
	}

	clu := core.NewCluster(cfg)
	defer clu.Eng.Stop()
	s, err := svc.New(clu, opts)
	if err != nil {
		return fail("%v", err)
	}
	if err := s.Start(); err != nil {
		return fail("start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()
	fmt.Printf("smoke: daemon on %s\n", base)

	// 1. Readiness flips once cluster setup completes.
	ready := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready = true
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ready {
		return fail("/readyz never returned 200")
	}
	fmt.Println("smoke: ready")

	// 2. Live metrics carry the Prometheus content type and core families.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fail("/metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		return fail("/metrics content type %q", ct)
	}
	for _, want := range []string{"nadino_build_info", "nadino_cluster_goodput_total", "# TYPE"} {
		if !strings.Contains(string(body), want) {
			return fail("/metrics missing %q", want)
		}
	}
	fmt.Printf("smoke: scraped %d bytes of metrics\n", len(body))

	// 3. Hot-reload a chaos schedule against the running engine.
	sched := `{"events": [{"at_ms": 1, "for_ms": 5,
		"fault": {"kind": "link-down", "from": "node1", "to": "node2"}}]}`
	resp, err = http.Post(base+"/api/v1/chaos", "application/json", strings.NewReader(sched))
	if err != nil {
		return fail("chaos POST: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail("chaos POST: %d: %s", resp.StatusCode, body)
	}
	fmt.Println("smoke: chaos schedule installed")

	// 4. Flight dump shows the recorder is live (the chaos apply/revert and
	// the API marks are already in the ring).
	time.Sleep(100 * time.Millisecond) // let the fault window open and close
	resp, err = http.Get(base + "/api/v1/flightdump")
	if err != nil {
		return fail("flightdump: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		return fail("flightdump parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		return fail("flightdump has no events")
	}
	fmt.Printf("smoke: flight dump has %d trace events\n", len(trace.TraceEvents))

	// 5. Status sanity: traffic flowed while we poked around.
	resp, err = http.Get(base + "/api/v1/status")
	if err != nil {
		return fail("status: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		Ready     bool   `json:"ready"`
		Completed uint64 `json:"completed"`
		Invoked   uint64 `json:"invoked"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fail("status parse: %v", err)
	}
	if !st.Ready || st.Invoked == 0 {
		return fail("status: %+v", st)
	}
	fmt.Printf("smoke: %d invoked, %d completed\n", st.Invoked, st.Completed)

	// 6. Clean shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fail("shutdown: %v", err)
	}
	fmt.Println("smoke: PASS")
	return 0
}
