package svc

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/core"
	"nadino/internal/flightrec"
	"nadino/internal/ingress"
	"nadino/internal/telemetry"
	"nadino/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Addr is the HTTP listen address (e.g. "127.0.0.1:9420"). Required.
	Addr string
	// Dilation is virtual seconds advanced per wall second (default 1.0).
	Dilation float64
	// Slice bounds virtual time per engine hold (default 10ms).
	Slice time.Duration
	// ScrapePeriod is the telemetry scraper's virtual-time period
	// (default 10ms).
	ScrapePeriod time.Duration
	// RetainSamples bounds per-series history (default 600 samples).
	RetainSamples int
	// FlightRecSize is the flight recorder ring capacity
	// (default flightrec.DefaultSize).
	FlightRecSize int
	// DumpDir receives automatic flight dumps on SLO breach ("" disables
	// auto-dump to disk; breaches are always recorded in the ring).
	DumpDir string
	// Chain and RPS optionally run a built-in open-loop load generator:
	// RPS chain requests per virtual second, submitted from engine
	// callbacks. Zero RPS disables it (an external generator drives
	// /invoke); New refuses an unknown chain or a rate above 1e9.
	Chain string
	RPS   float64
	// ChaosSeed seeds the fault injector (default 1).
	ChaosSeed int64
}

// HTTP timeouts bound how long one client can hold a connection, so a slow
// or stalled client cannot pin server goroutines and file descriptors.
// writeTimeout must exceed pprof's default 30s CPU profile, which writes
// its response only when the profile ends.
const (
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// Server is the nadino-svc daemon: one cluster, one pacer, one HTTP plane.
type Server struct {
	opts  Options
	clu   *core.Cluster
	pacer *Pacer
	reg   *telemetry.Registry
	sc    *telemetry.Scraper
	dog   *telemetry.Watchdog
	rec   *flightrec.Recorder
	inj   *chaos.Injector

	breachActor uint16
	markActor   uint16

	invoked  atomic.Uint64 // requests accepted via /invoke + generator
	dumps    atomic.Uint64 // automatic breach dumps written
	recAtt   bool          // flight recorder attached to cluster hooks
	http     *http.Server
	listener net.Listener
}

// New assembles a server around an already-built (not yet run) cluster,
// refusing a built-in generator it cannot run.
func New(clu *core.Cluster, opts Options) (*Server, error) {
	var interval time.Duration
	if opts.RPS > 0 && opts.Chain != "" {
		if _, ok := clu.ChainLatency[opts.Chain]; !ok {
			return nil, fmt.Errorf("svc: generator chain %q is not in the cluster", opts.Chain)
		}
		if interval = time.Duration(float64(time.Second) / opts.RPS); interval <= 0 {
			return nil, fmt.Errorf("svc: generator rate %v rps leaves no whole nanosecond between requests", opts.RPS)
		}
	}
	if opts.Dilation <= 0 {
		opts.Dilation = 1.0
	}
	if opts.ScrapePeriod <= 0 {
		opts.ScrapePeriod = 10 * time.Millisecond
	}
	if opts.RetainSamples <= 0 {
		opts.RetainSamples = 600
	}
	if opts.FlightRecSize <= 0 {
		opts.FlightRecSize = flightrec.DefaultSize
	}
	if opts.ChaosSeed == 0 {
		opts.ChaosSeed = 1
	}
	s := &Server{opts: opts, clu: clu}
	eng := clu.Eng

	s.rec = flightrec.New(opts.FlightRecSize, eng.Now)
	s.breachActor = s.rec.Actor("watchdog")
	s.markActor = s.rec.Actor("api")
	s.dog = telemetry.NewWatchdog()
	s.dog.OnBreach = s.onBreach

	s.pacer = NewPacer(eng, opts.Dilation, opts.Slice, 0)

	s.reg = telemetry.NewRegistry()
	clu.Instrument(s.reg)
	// The daemon's wall-clock uptime, beside Instrument's virtual one.
	// Only the daemon registers it, so rig exports stay a function of
	// their seed.
	wallStart := time.Now()
	s.reg.Gauge("process.uptime_seconds", func() float64 {
		return time.Since(wallStart).Seconds()
	}, "clock", "wall")
	s.reg.SetHelp("svc.pacer_lag_seconds", "How far virtual time trails its wall-derived target.")
	s.reg.Gauge("svc.pacer_lag_seconds", func() float64 { return s.pacer.Lag().Seconds() })
	s.reg.SetHelp("svc.invoked", "Requests accepted through /invoke and the built-in generator.")
	s.reg.Gauge("svc.invoked", func() float64 { return float64(s.invoked.Load()) })
	s.reg.SetHelp("svc.slo_violations", "SLO watchdog violations recorded since start.")
	s.reg.Gauge("svc.slo_violations", func() float64 { return float64(len(s.dog.Violations())) })
	s.reg.SetHelp("svc.flightrec_events", "Lifetime flight-recorder events (ring retains the newest).")
	s.reg.Gauge("svc.flightrec_events", func() float64 { return float64(s.rec.Total()) })

	s.sc = s.reg.Scrape(eng, opts.ScrapePeriod)
	s.sc.Retain(opts.RetainSamples)
	s.dog.Attach(s.sc)

	s.inj = clu.NewChaos(opts.ChaosSeed)
	s.inj.SetFlightRecorder(s.rec)

	if interval > 0 {
		// One request every interval from now on; arrival n is client n+1.
		every := func(int, int) time.Duration { return interval }
		(&workload.Driver{Chains: []string{opts.Chain}, Think: every}).Start(eng,
			func(chain string, n, clone int, hedge time.Duration, reply func(ingress.Response)) {
				s.invoked.Add(1)
				clu.SubmitChainSpec(chain, n+1, clone, hedge, reply)
			})
	}
	return s, nil
}

// onBreach runs in engine context the moment the watchdog fires: mark
// the ring, then (if configured) dump it to disk next to the breach.
func (s *Server) onBreach(v telemetry.Violation) {
	s.rec.Record(flightrec.KindSLOBreach, s.breachActor, int64(v.At), int64(len(s.dog.Violations())))
	if s.opts.DumpDir == "" {
		return
	}
	n := s.dumps.Add(1)
	stem := filepath.Join(s.opts.DumpDir, fmt.Sprintf("breach-%03d-%s", n, v.Rule))
	if f, err := os.Create(stem + ".trace.json"); err == nil {
		flightrec.WriteChrome(f, s.rec)
		f.Close()
	}
	if f, err := os.Create(stem + ".txt"); err == nil {
		fmt.Fprintf(f, "SLO breach: %s\n\n", v.String())
		flightrec.WriteText(f, s.rec, 200)
		f.Close()
	}
}

// AttachRecorder wires the flight recorder into every cluster hook point.
// Requires the cluster to be past setup (connection pools exist); the
// serve loop calls it automatically once Ready flips.
func (s *Server) attachRecorderIfReady() {
	s.pacer.Do(func() {
		if !s.recAtt && s.clu.Ready() {
			s.clu.AttachFlightRecorder(s.rec)
			s.recAtt = true
		}
	})
}

// Registry exposes the server's telemetry registry (tests).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Watchdog exposes the SLO watchdog (rule pre-loading before Start).
func (s *Server) Watchdog() *telemetry.Watchdog { return s.dog }

// Recorder exposes the flight recorder (tests; engine-lock rules apply).
func (s *Server) Recorder() *flightrec.Recorder { return s.rec }

// Pacer exposes the pacer (tests).
func (s *Server) Pacer() *Pacer { return s.pacer }

// Addr reports the bound listen address once Start returned (useful with
// ":0" test listeners).
func (s *Server) Addr() string {
	if s.listener == nil {
		return s.opts.Addr
	}
	return s.listener.Addr().String()
}

// Start binds the listener, starts the pacer and serves HTTP in the
// background. The returned error covers bind failures only; serve-loop
// errors surface through Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("svc: listen %s: %w", s.opts.Addr, err)
	}
	s.listener = ln
	s.http = &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.pacer.Start()
	go func() {
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "nadino-svc: serve: %v\n", err)
		}
	}()
	return nil
}

// Shutdown stops HTTP (draining in-flight handlers) and halts the pacer.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	}
	s.pacer.Stop()
	return err
}

// routes assembles the HTTP mux: observability endpoints, the management
// API and pprof.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/invoke/", s.handleInvoke)
	mux.HandleFunc("/api/v1/status", s.handleStatus)
	mux.HandleFunc("/api/v1/chaos", s.handleChaos)
	mux.HandleFunc("/api/v1/tenants", s.handleTenants)
	mux.HandleFunc("/api/v1/reroute", s.handleReroute)
	mux.HandleFunc("/api/v1/watchdog", s.handleWatchdog)
	mux.HandleFunc("/api/v1/flightdump", s.handleFlightDump)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics renders the live exposition under the engine lock: gauges
// and histograms read engine-owned state, so the scrape interleaves with
// pacer slices like any other Do.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.attachRecorderIfReady()
	var buf bytes.Buffer
	var err error
	s.pacer.Do(func() { err = telemetry.WritePrometheus(&buf, s.reg) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	w.Write(buf.Bytes())
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	ready := false
	s.pacer.Do(func() { ready = s.clu.Ready() })
	if !ready {
		http.Error(w, "cluster setup in progress", http.StatusServiceUnavailable)
		return
	}
	s.attachRecorderIfReady()
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}
