package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// Op is a threshold-rule comparison: the assertion every sample must
// satisfy against the rule's Bound.
type Op int

// Threshold operators.
const (
	OpLT Op = iota // value <  Bound
	OpLE           // value <= Bound
	OpGT           // value >  Bound
	OpGE           // value >= Bound
)

// opNames renders and parses Ops; indexed by Op.
var opNames = [...]string{OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">="}

func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return "?"
	}
	return opNames[o]
}

// ParseOp maps an operator's text ("<", "<=", ">", ">=") onto its Op.
func ParseOp(s string) (Op, error) {
	for o, name := range opNames {
		if name == s {
			return Op(o), nil
		}
	}
	return 0, fmt.Errorf("unknown op %q (want <, <=, >, >=)", s)
}

func (o Op) holds(v, bound float64) bool {
	switch o {
	case OpLT:
		return v < bound
	case OpLE:
		return v <= bound
	case OpGT:
		return v > bound
	case OpGE:
		return v >= bound
	}
	return false
}

// Rule is a declarative threshold SLO over one series: every sample inside
// [From, To] must satisfy `value Op Bound`. Sustain tolerates short
// excursions — a violation is emitted only after Sustain consecutive
// breaching samples (default 1), one violation per breach episode.
type Rule struct {
	Name   string
	Series string // canonical series key (Meta.Key)
	From   time.Duration
	To     time.Duration // 0 = end of series
	Op     Op
	Bound  float64
	// Sustain is how many consecutive samples must breach before a
	// violation fires; values < 1 mean 1.
	Sustain int
}

// Violation is one structured SLO breach record.
type Violation struct {
	Rule   string        `json:"rule"`
	Series string        `json:"series"`
	At     time.Duration `json:"at_ns"`
	Value  float64       `json:"value"`
	Detail string        `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s at %v (value %g): %s", v.Rule, v.Series, v.At, v.Value, v.Detail)
}

// Watchdog evaluates threshold Rules continuously as a scraper samples. It
// attaches to a Scraper's OnSample hook and checks each rule against the
// newest window only, carrying the sustain run across windows — so a breach
// fires the moment its Sustain-th consecutive bad sample lands, in engine
// context, while the system is still running. That is what lets nadino-svc
// dump the flight recorder *at* the breach rather than post-mortem.
//
// One violation fires per breach episode; a conforming sample closes the
// episode and re-arms the rule. A rule whose series is missing is itself a
// violation, reported once — a silently absent SLO is worse than a failing
// one. Rule.From/To bound evaluation in virtual time (To == 0 means
// forever). Verdicts are a pure function of the sampled series, so they
// inherit the simulation's determinism. Recorded violations are guarded by
// a mutex so the HTTP plane can list them while the engine appends.
type Watchdog struct {
	rules []Rule
	state []ruleState

	// OnBreach, if set, runs in engine context the moment a violation is
	// recorded. nadino-svc hooks the flight-recorder dump here.
	OnBreach func(Violation)

	mu         sync.Mutex
	violations []Violation
}

// ruleState is the per-rule episode accumulator.
type ruleState struct {
	run      int
	runStart time.Duration
	runValue float64
	fired    bool
	missing  bool // series-not-found already reported
}

// NewWatchdog returns an empty watchdog.
func NewWatchdog() *Watchdog { return &Watchdog{} }

// Add registers a threshold rule. Once attached, call it in engine context
// or with the engine paused (nadino-svc hot-adds rules under its pacer).
func (w *Watchdog) Add(r Rule) {
	w.rules = append(w.rules, r)
	w.state = append(w.state, ruleState{})
}

// Attach hooks the watchdog to sc: every scrape window is evaluated as it
// closes. One watchdog attaches to one scraper.
func (w *Watchdog) Attach(sc *Scraper) {
	sc.OnSample(func(now time.Duration) { w.step(sc, now) })
}

// step evaluates every rule against the sample that just landed at now.
// Engine context.
func (w *Watchdog) step(sc *Scraper, now time.Duration) {
	for i := range w.rules {
		r := &w.rules[i]
		st := &w.state[i]
		if now < r.From || (r.To > 0 && now > r.To) {
			continue
		}
		s := sc.Lookup(r.Series)
		if s == nil {
			if !st.missing {
				st.missing = true
				w.record(Violation{Rule: r.Name, Series: r.Series, At: now, Detail: "series not found"})
			}
			continue
		}
		n := s.Len()
		if n == 0 {
			continue
		}
		p := s.Points[n-1]
		if p.T != now {
			continue // this series did not sample this window
		}
		if r.Op.holds(p.V, r.Bound) {
			st.run, st.fired = 0, false
			continue
		}
		if st.run == 0 {
			st.runStart, st.runValue = p.T, p.V
		}
		st.run++
		need := r.Sustain
		if need < 1 {
			need = 1
		}
		if st.run >= need && !st.fired {
			st.fired = true
			w.record(Violation{
				Rule: r.Name, Series: r.Series, At: st.runStart, Value: st.runValue,
				Detail: fmt.Sprintf("want %s %g, got %g for %d consecutive samples", r.Op, r.Bound, st.runValue, st.run),
			})
		}
	}
}

func (w *Watchdog) record(v Violation) {
	w.mu.Lock()
	w.violations = append(w.violations, v)
	w.mu.Unlock()
	if w.OnBreach != nil {
		w.OnBreach(v)
	}
}

// Violations returns a copy of every violation recorded so far, in firing
// order. Safe to call from any goroutine.
func (w *Watchdog) Violations() []Violation {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Violation, len(w.violations))
	copy(out, w.violations)
	return out
}

// Rules returns the registered rules in order (for the management API).
func (w *Watchdog) Rules() []Rule {
	out := make([]Rule, len(w.rules))
	copy(out, w.rules)
	return out
}
