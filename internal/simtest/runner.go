package simtest

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"nadino/internal/flightrec"
)

// checkPeriod is the periodic-invariant tick: fine enough to interleave
// with every stage of a request's life, coarse enough to keep a sweep of
// thousands of scenarios cheap.
const checkPeriod = 500 * time.Microsecond

// Result is one scenario's verdict plus the deterministic evidence trail.
// Report (and therefore Fingerprint) is a pure function of the scenario, so
// re-running a failing seed reproduces it byte-identically.
type Result struct {
	Scenario Scenario

	Issued, Completed, InFlight uint64
	Drops                       uint64 // counted data-plane losses: engines, gateways, ingress
	Retried                     uint64
	Forwarded                   uint64 // gateway writes posted (gateway scenarios only)
	FaultsApplied               int
	FaultsReverted              int
	AuditOps                    int

	// Speculation ledger of the ingress controller (all zero when the
	// scenario runs without cloning or hedging).
	SpecLaunched, SpecArms uint64
	SpecWins, SpecCancels  uint64
	SpecKills              uint64

	Violations []Violation

	// Report is the canonical textual summary; Fingerprint is its FNV-64a
	// hash, the byte-identity check for reproductions.
	Report      string
	Fingerprint uint64

	// FlightDump is the flight recorder's last-N report, populated only
	// when the run failed. It is deliberately NOT part of Report: the dump
	// is deterministic too, but keeping it out preserves fingerprint
	// stability across recorder-coverage changes.
	FlightDump string
}

// Failed reports whether any invariant fired.
func (res *Result) Failed() bool { return len(res.Violations) > 0 }

// ReproCommand prints the exact command that re-runs this scenario's seed
// standalone. Only meaningful for generated scenarios (Generate(Seed));
// shrunk scenarios are reported inline instead.
func (res *Result) ReproCommand() string {
	return fmt.Sprintf("go run ./cmd/nadino-bench -run fuzz -seed %d -fuzz-seeds 1", res.Scenario.Seed)
}

// Run builds the scenario's world, drives it to quiesce under the periodic
// checkers, then runs the final checkers. Panics in engine context are
// converted into a "panic" violation so a sweep survives a crashing seed
// and still reports it.
func Run(sc Scenario) *Result {
	res := &Result{Scenario: sc}
	var r *Rig
	var panicDetail string
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicDetail = fmt.Sprint(p)
			}
		}()
		r = NewRig(sc)
		invs := Invariants()
		stop := r.eng.Ticker(checkPeriod, func(time.Duration) {
			for _, inv := range invs {
				if r.tripped[inv.Name] {
					continue
				}
				if msgs := inv.Check(r, false); len(msgs) > 0 {
					r.tripped[inv.Name] = true
					r.violate(inv.Name, msgs[0])
				}
			}
		})
		r.eng.RunUntil(r.endAt)
		stop()
		r.scraper.Stop()
		for _, inv := range invs {
			for _, msg := range inv.Check(r, true) {
				r.violate(inv.Name, msg)
			}
		}
	}()
	if r != nil {
		res.collect(r)
		defer r.eng.Stop()
	}
	if panicDetail != "" {
		at := time.Duration(0)
		if r != nil {
			at = r.eng.Now()
		}
		res.Violations = append(res.Violations, Violation{At: at, Invariant: "panic", Detail: panicDetail})
	}
	if r != nil && len(res.Violations) > 0 {
		res.FlightDump = flightrec.TextDump(r.rec, 64)
	}
	res.Report = res.render()
	res.Fingerprint = fingerprint(res.Report)
	return res
}

// violate records one finding, marking it in the flight recorder too.
func (r *Rig) violate(invariant, detail string) {
	r.rec.Record(flightrec.KindInvariant, r.invActor, int64(len(r.violations)), 0)
	r.violations = append(r.violations, Violation{At: r.eng.Now(), Invariant: invariant, Detail: detail})
}

// collect copies the rig's ledger and the cluster's counters into res.
func (res *Result) collect(r *Rig) {
	res.Violations = append(res.Violations, r.violations...)
	for _, tr := range r.tenants {
		res.Issued += tr.issued
		res.Completed += tr.completed
		res.InFlight += tr.inFlight
	}
	if sp := r.c.Gateway().Spec(); sp != nil {
		st := sp.Stats()
		res.SpecLaunched, res.SpecArms = st.Launched, st.Arms
		res.SpecWins, res.SpecCancels, res.SpecKills = st.Wins(), st.Cancels, st.Kills
	}
	res.Drops = r.drops()
	for _, n := range r.c.Nodes() {
		retried, _ := n.Engine.RetryStats()
		res.Retried += retried
		if n.Gateway != nil {
			res.Forwarded += n.Gateway.Stats().Forwarded
		}
	}
	res.FaultsApplied = r.inj.Applied()
	res.FaultsReverted = r.inj.Reverted()
	res.AuditOps = r.auditOps
}

// render builds the canonical report text. Everything in it is derived from
// deterministic simulation state, so it is byte-stable per scenario.
func (res *Result) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\n", res.Scenario)
	fmt.Fprintf(&b, "issued=%d completed=%d in_flight=%d drops=%d retried=%d\n",
		res.Issued, res.Completed, res.InFlight, res.Drops, res.Retried)
	if res.Scenario.Gateways {
		fmt.Fprintf(&b, "gateway forwarded=%d\n", res.Forwarded)
	}
	if res.Scenario.Speculative() {
		fmt.Fprintf(&b, "spec launched=%d arms=%d wins=%d cancels=%d kills=%d\n",
			res.SpecLaunched, res.SpecArms, res.SpecWins, res.SpecCancels, res.SpecKills)
	}
	fmt.Fprintf(&b, "faults applied=%d reverted=%d audit_ops=%d\n",
		res.FaultsApplied, res.FaultsReverted, res.AuditOps)
	if len(res.Violations) == 0 {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%d violations)\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

func fingerprint(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// violatedNames collects the distinct invariant names that fired.
func (res *Result) violatedNames() map[string]bool {
	m := make(map[string]bool, len(res.Violations))
	for _, v := range res.Violations {
		m[v.Invariant] = true
	}
	return m
}
