package svc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/flightrec"
	"nadino/internal/telemetry"
)

// The management API: small JSON endpoints that mutate the running cluster
// under the pacer's engine lock. Every mutation is also dropped into the
// flight recorder as a mark, so a later dump shows what the operator did
// relative to what the system did.

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// apiError is the uniform error body.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody bounds and reads a request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		apiError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	return body, true
}

// handleStatus reports the daemon's vital signs.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	type status struct {
		VirtualNow    string  `json:"virtual_now"`
		WallUptime    string  `json:"wall_uptime"`
		Dilation      float64 `json:"dilation"`
		PacerLag      string  `json:"pacer_lag"`
		Ready         bool    `json:"ready"`
		Completed     uint64  `json:"completed"`
		Invoked       uint64  `json:"invoked"`
		Violations    int     `json:"slo_violations"`
		FlightEvents  uint64  `json:"flightrec_events"`
		FaultsApplied int     `json:"faults_applied"`
	}
	var st status
	s.pacer.Do(func() {
		st = status{
			VirtualNow:    s.clu.Eng.Now().String(),
			WallUptime:    time.Since(s.pacer.WallStart()).Round(time.Millisecond).String(),
			Dilation:      s.pacer.Dilation(),
			PacerLag:      s.pacer.Lag().String(),
			Ready:         s.clu.Ready(),
			Completed:     s.clu.Completed.Total(),
			Invoked:       s.invoked.Load(),
			Violations:    len(s.dog.Violations()),
			FlightEvents:  s.rec.Total(),
			FaultsApplied: s.inj.Applied(),
		}
	})
	writeJSON(w, http.StatusOK, st)
}

// handleChaos hot-installs a fault schedule: POST the chaos wire format
// (times relative to receipt) and it is shifted to the engine's now and
// armed. A schedule naming a node or target the cluster does not have is
// refused whole.
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST a chaos schedule (see internal/chaos wire format)")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	sched, err := chaos.ParseSchedule(body)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.pacer.Do(func() {
		if err = s.inj.Check(sched); err == nil {
			s.inj.Install(sched.Shift(s.clu.Eng.Now()))
			s.rec.Record(flightrec.KindMark, s.markActor, int64(len(sched)), 0)
		}
	})
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"installed": len(sched)})
}

// handleTenants lists tenant weights (GET) or re-weights one (POST
// {"tenant": "...", "weight": N}).
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		var out any
		s.pacer.Do(func() { out = s.clu.TenantWeights() })
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var req struct {
			Tenant string `json:"tenant"`
			Weight int    `json:"weight"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			apiError(w, http.StatusBadRequest, "parse: %v", err)
			return
		}
		applied := false
		s.pacer.Do(func() {
			applied = s.clu.SetTenantWeight(req.Tenant, req.Weight)
			if applied {
				s.rec.Record(flightrec.KindMark, s.markActor, int64(req.Weight), 0)
			}
		})
		if !applied {
			apiError(w, http.StatusBadRequest, "unknown tenant %q or invalid weight %d", req.Tenant, req.Weight)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"tenant": req.Tenant, "weight": req.Weight})
	default:
		apiError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

// handleReroute steers a function's route (POST {"fn", "node", "force"}).
func (s *Server) handleReroute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST {\"fn\": ..., \"node\": ..., \"force\": bool}")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Fn    string `json:"fn"`
		Node  string `json:"node"`
		Force bool   `json:"force"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		apiError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	var err error
	s.pacer.Do(func() {
		err = s.clu.Reroute(req.Fn, req.Node, req.Force)
		if err == nil {
			s.rec.Record(flightrec.KindMark, s.markActor, 0, 0)
		}
	})
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"fn": req.Fn, "node": req.Node})
}

// Watchdog rule bounds. Every scrape evaluates each rule with one series
// lookup, so a client may grow neither the rule list nor its keys without
// limit.
const (
	maxWatchdogRules = 64
	maxRuleKeyLen    = 256 // bytes, for name and series each
)

// wireRule is the watchdog rule wire shape.
type wireRule struct {
	Name    string  `json:"name"`
	Series  string  `json:"series"`
	Op      string  `json:"op"` // "<", "<=", ">", ">="
	Bound   float64 `json:"bound"`
	Sustain int     `json:"sustain,omitempty"`
	FromMS  float64 `json:"from_ms,omitempty"`
	ToMS    float64 `json:"to_ms,omitempty"`
}

// handleWatchdog lists rules and violations (GET) or hot-adds a rule
// (POST wireRule). Rule From/To default to "from now on".
func (s *Server) handleWatchdog(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		type view struct {
			Rules      []telemetry.Rule      `json:"rules"`
			Violations []telemetry.Violation `json:"violations"`
		}
		var out view
		s.pacer.Do(func() {
			out = view{Rules: s.dog.Rules(), Violations: s.dog.Violations()}
		})
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var req wireRule
		if err := json.Unmarshal(body, &req); err != nil {
			apiError(w, http.StatusBadRequest, "parse: %v", err)
			return
		}
		if req.Name == "" || req.Series == "" {
			apiError(w, http.StatusBadRequest, "rule needs name and series")
			return
		}
		if len(req.Name) > maxRuleKeyLen || len(req.Series) > maxRuleKeyLen {
			apiError(w, http.StatusBadRequest, "name and series must be at most %d bytes", maxRuleKeyLen)
			return
		}
		op, err := telemetry.ParseOp(req.Op)
		if err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Past the horizon the float-to-Duration conversion overflows, and
		// a window meant to open far in the future would be live at once.
		horizon := float64(chaos.WireHorizon / time.Millisecond)
		if req.FromMS < 0 || req.FromMS > horizon || req.ToMS < 0 || req.ToMS > horizon {
			apiError(w, http.StatusBadRequest, "from_ms/to_ms must lie in [0, %v]", chaos.WireHorizon)
			return
		}
		full := false
		s.pacer.Do(func() {
			if len(s.dog.Rules()) >= maxWatchdogRules {
				full = true
				return
			}
			rule := telemetry.Rule{
				Name: req.Name, Series: req.Series, Op: op, Bound: req.Bound,
				Sustain: req.Sustain,
				From:    s.clu.Eng.Now() + time.Duration(req.FromMS*float64(time.Millisecond)),
			}
			if req.ToMS > 0 {
				rule.To = s.clu.Eng.Now() + time.Duration(req.ToMS*float64(time.Millisecond))
			}
			s.dog.Add(rule)
			s.rec.Record(flightrec.KindMark, s.markActor, int64(rule.Bound), 0)
		})
		if full {
			apiError(w, http.StatusBadRequest, "watchdog already holds the maximum of %d rules", maxWatchdogRules)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"added": req.Name})
	default:
		apiError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

// handleFlightDump renders the flight recorder: ?format=chrome (default)
// for a Chrome/Perfetto trace, ?format=text&last=N for the tail report.
func (s *Server) handleFlightDump(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "chrome"
	}
	lastN := 0
	if q := r.URL.Query().Get("last"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			apiError(w, http.StatusBadRequest, "last: %v", err)
			return
		}
		lastN = n
	}
	var body []byte
	var err error
	s.pacer.Do(func() {
		switch format {
		case "chrome":
			var b strings.Builder
			err = flightrec.WriteChrome(&b, s.rec)
			body = []byte(b.String())
		case "text":
			body = []byte(flightrec.TextDump(s.rec, lastN))
		default:
			err = fmt.Errorf("unknown format %q (want chrome or text)", format)
		}
	})
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if format == "chrome" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Write(body)
}

// handleInvoke accepts one chain request: POST /invoke/<chain>?client=N.
// The request is submitted into the simulation and the handler returns
// immediately (202) — completions surface in cluster.goodput and the chain
// latency histograms, which is what an external load generator watches.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	chain := strings.TrimPrefix(r.URL.Path, "/invoke/")
	if chain == "" {
		apiError(w, http.StatusBadRequest, "POST /invoke/<chain>")
		return
	}
	client := 0
	if q := r.URL.Query().Get("client"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			apiError(w, http.StatusBadRequest, "client: %v", err)
			return
		}
		client = n
	}
	var known bool
	s.pacer.Do(func() {
		if _, ok := s.clu.ChainLatency[chain]; !ok {
			return
		}
		known = true
		s.invoked.Add(1)
		s.clu.SubmitChain(chain, client, nil)
	})
	if !known {
		apiError(w, http.StatusNotFound, "unknown chain %q", chain)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"chain": chain, "client": client})
}
