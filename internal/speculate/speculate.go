// Package speculate implements speculative request execution for the
// NADINO request path: clone-to-N with cancel-on-first-complete, and hedged
// retries that fire a duplicate once a request outlives the chain's rolling
// P95 latency (the request-cloning-under-processor-sharing design from
// arXiv 2002.04416, grafted onto a real multi-tenant data plane).
//
// The package owns only the speculation *decisions*: which arms to fire,
// when the hedge timer goes off, which completion is the winner. The
// resources each arm holds — pool buffers, gateway credits, in-flight WR
// state — stay owned by the layers that acquired them; carriers learn a
// clone lost through the descriptor's cancellation probe (see
// mempool.Msg.Spec) or the boundary's Finish verdict, and return
// their own resources at whatever stage the clone died. Losing completions
// are deduplicated at the ingress boundary: Finish returns true exactly
// once per group, so every cloned request completes exactly once upstream.
//
// Everything runs in engine context on virtual time; hedge timers are
// generation-fenced engine events, so a cancel can never touch a recycled
// timer slot.
package speculate

import (
	"time"

	"nadino/internal/sim"
)

// Arm classes, by how the arm came to be fired.
const (
	// ArmPrimary is the request's first arm (always fired).
	ArmPrimary = 0
)

// Policy configures speculation for a request source.
type Policy struct {
	// CloneN is the number of arms fired immediately per request (1 = no
	// cloning; 0 is normalized to 1).
	CloneN int
	// Hedge fires one extra arm if the request is still unresolved after
	// the chain's rolling P95 latency.
	Hedge bool
	// HedgeMin floors the hedge deadline and stands in for it while the
	// latency window is still cold.
	HedgeMin time.Duration
	// Window is the per-chain rolling latency window the P95 deadline is
	// computed over (default 64).
	Window int
}

// Enabled reports whether the policy speculates at all.
func (p Policy) Enabled() bool { return p.CloneN > 1 || p.Hedge }

// Stats is the spec.* counter family.
type Stats struct {
	Launched   uint64 // groups launched
	Arms       uint64 // total arms fired (primary + clones + hedges)
	Clones     uint64 // extra clone arms fired at launch
	Hedges     uint64 // hedge arms fired after the deadline
	WinPrimary uint64 // groups won by the primary arm
	WinClone   uint64 // groups won by a launch-time clone
	WinHedge   uint64 // groups won by the hedge arm
	Cancels    uint64 // loser completions suppressed at the boundary
	Kills      uint64 // clones killed mid-plane by the cancellation probe
	LateFires  uint64 // hedge timers that fired after their group had won
}

// Wins reports the total resolved groups.
func (s Stats) Wins() uint64 { return s.WinPrimary + s.WinClone + s.WinHedge }

// Tracker keeps a rolling window of observed chain latencies and serves the
// P95 hedge deadline over it. The window is a fixed ring; the quantile is
// recomputed only when dirty, over a scratch copy, so steady-state Observe
// is O(1) and allocation-free once warm.
type Tracker struct {
	ring    []time.Duration
	scratch []time.Duration
	n       int // filled entries
	pos     int // next write
	dirty   bool
	p95     time.Duration
}

// NewTracker returns a tracker over a window of size entries (default 64).
func NewTracker(window int) *Tracker {
	if window <= 0 {
		window = 64
	}
	return &Tracker{
		ring:    make([]time.Duration, window),
		scratch: make([]time.Duration, window),
	}
}

// Observe records one completed-request latency.
func (t *Tracker) Observe(d time.Duration) {
	t.ring[t.pos] = d
	t.pos = (t.pos + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.dirty = true
}

// Count reports how many observations the window currently holds.
func (t *Tracker) Count() int { return t.n }

// P95 reports the 95th-percentile latency over the window (0 while empty).
func (t *Tracker) P95() time.Duration {
	if t.n == 0 {
		return 0
	}
	if t.dirty {
		s := t.scratch[:t.n]
		copy(s, t.ring[:t.n])
		// Insertion sort: the window is small (tens of entries) and often
		// nearly sorted between recomputes.
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		idx := (t.n*95 + 99) / 100
		if idx > 0 {
			idx--
		}
		t.p95 = s[idx]
		t.dirty = false
	}
	return t.p95
}

// Spec is an engine-bound speculation controller: one per request source
// (the ingress gateway, an experiment rig), holding per-chain latency
// trackers and the spec.* counters.
type Spec struct {
	eng      *sim.Engine
	pol      Policy
	trackers map[string]*Tracker
	stats    Stats
	pending  int // armed hedge timers not yet fired or cancelled
}

// New returns a controller for pol bound to eng.
func New(eng *sim.Engine, pol Policy) *Spec {
	if pol.CloneN < 1 {
		pol.CloneN = 1
	}
	return &Spec{eng: eng, pol: pol, trackers: make(map[string]*Tracker)}
}

// Stats returns a snapshot of the spec.* counters.
func (s *Spec) Stats() Stats { return s.stats }

// PendingHedges reports hedge timers currently armed. At quiesce this must
// be zero: every group either won (cancelling its timer) or its timer fired.
func (s *Spec) PendingHedges() int { return s.pending }

// Tracker returns (creating on first use) the chain's latency tracker.
func (s *Spec) Tracker(chain string) *Tracker {
	t, ok := s.trackers[chain]
	if !ok {
		t = NewTracker(s.pol.Window)
		s.trackers[chain] = t
	}
	return t
}

// Deadline reports the hedge deadline currently in effect for chain: the
// rolling P95, floored by HedgeMin (which alone serves a cold window).
func (s *Spec) Deadline(chain string) time.Duration {
	d := s.Tracker(chain).P95()
	if d < s.pol.HedgeMin {
		d = s.pol.HedgeMin
	}
	return d
}

// Group tracks one speculated request: the arms in flight and the win
// state. All methods must run in engine context.
type Group struct {
	s     *Spec
	chain string
	start time.Duration

	arms   int // arms fired so far (hedge included once it fires)
	won    bool
	wonArm int
	wonAt  time.Duration

	hedge       sim.Event // generation-fenced: cancel after fire is a no-op
	hedgeArmed  bool
	clone       int // clone factor at launch (overridable per request)
	hedgeOn     bool
	hedgeMinReq time.Duration
}

// Launch fires a request's arms: fire(g, arm) must issue arm's copy of the
// request and report whether it was actually sent (a false return — pool
// exhausted, no route — does not count the arm). The group is passed to
// fire so carriers can attach its cancellation probe to the descriptors
// they create. Arms are fired synchronously in index order; if the policy
// hedges, one extra arm is scheduled after the chain's rolling deadline.
// cloneOverride/hedgeOverride customize the policy per request (trace
// replays carry their own clone factor and hedge deadline): cloneOverride 0
// defers to the policy, as does a negative hedgeOverride; hedgeOverride 0
// with Hedge off stays unhedged. Launch is Start, Fired for each of the
// group's Clones arms, then ArmHedge.
func (s *Spec) Launch(chain string, cloneOverride int, hedgeOverride time.Duration, fire func(g *Group, arm int) bool) *Group {
	g := s.Start(chain, cloneOverride, hedgeOverride)
	for arm := 0; arm < g.clone; arm++ {
		g.Fired(arm, fire(g, arm))
	}
	g.ArmHedge(fire)
	return g
}

// Start opens a request's group without firing anything: the stepwise
// form of Launch, for a caller whose arms each take a block point (the
// ingress worker converts every arm on its core). The caller fires arms 0
// to Clones()-1 in order, reports each with Fired as it goes out, and then
// calls ArmHedge, exactly as Launch does.
func (s *Spec) Start(chain string, cloneOverride int, hedgeOverride time.Duration) *Group {
	g := &Group{s: s, chain: chain, start: s.eng.Now(), clone: s.pol.CloneN, hedgeOn: s.pol.Hedge, hedgeMinReq: -1}
	if cloneOverride > 0 {
		g.clone = cloneOverride
	}
	if hedgeOverride > 0 {
		g.hedgeOn = true
		g.hedgeMinReq = hedgeOverride
	}
	s.stats.Launched++
	return g
}

// Clones reports how many arms the group fires at launch.
func (g *Group) Clones() int { return g.clone }

// Fired records launch-time arm arm's outcome: sent counts it, an arm that
// was not sent is skipped.
func (g *Group) Fired(arm int, sent bool) {
	if !sent {
		return
	}
	s := g.s
	g.arms++
	s.stats.Arms++
	if arm > ArmPrimary {
		s.stats.Clones++
	}
}

// ArmHedge arms the group's hedge timer once its launch-time arms are out,
// if the group hedges and at least one arm was sent: fire issues the hedge
// arm if the deadline passes with the group still unresolved.
func (g *Group) ArmHedge(fire func(g *Group, arm int) bool) {
	s := g.s
	if !g.hedgeOn || g.arms == 0 {
		return
	}
	deadline := s.Deadline(g.chain)
	if g.hedgeMinReq > deadline {
		deadline = g.hedgeMinReq
	}
	g.hedgeArmed = true
	s.pending++
	g.hedge = s.eng.After(deadline, func() {
		g.hedgeArmed = false
		s.pending--
		if g.won {
			// The cancel raced the firing instant; count it, fire
			// nothing.
			s.stats.LateFires++
			return
		}
		arm := g.arms
		if fire(g, arm) {
			g.arms++
			s.stats.Arms++
			s.stats.Hedges++
		}
	})
}

// Arms reports how many arms the group has fired so far.
func (g *Group) Arms() int { return g.arms }

// Won reports whether some arm already completed. Descriptor cancellation
// probes call this from any stage of the data plane: true means the carrier
// should kill the clone and return its resources.
func (g *Group) Won() bool { return g != nil && g.won }

// Killed is the descriptor cancellation probe (mempool.Msg.Spec):
// carriers call it at drop-decision points, and a true return means the
// group already won elsewhere — the carrier must kill this clone and return
// its resources. The kill is counted here (Stats.Kills), so a carrier calls
// the probe at most once per descriptor death.
func (g *Group) Killed() bool {
	if g == nil || !g.won {
		return false
	}
	g.s.stats.Kills++
	return true
}

// CancelVisible reports whether a cancel issued at the win instant has
// propagated to an observer delay away — carriers that model cancellation
// latency kill clones only once the cancel is visible to them.
func (g *Group) CancelVisible(delay time.Duration) bool {
	return g.won && g.s.eng.Now() >= g.wonAt+delay
}

// Finish resolves arm's completion at the ingress boundary. It returns true
// exactly once per group — for the first arm to complete, which becomes the
// winner: its latency feeds the chain tracker and any armed hedge timer is
// cancelled. Every later completion returns false (a cancelled loser whose
// resources the caller must return) and counts toward Stats.Cancels.
func (g *Group) Finish(arm int) bool {
	s := g.s
	if g.won {
		s.stats.Cancels++
		return false
	}
	g.won = true
	g.wonArm = arm
	g.wonAt = s.eng.Now()
	if g.hedgeArmed {
		// Generation-fenced: if the timer fired at this same instant the
		// cancel is a no-op and the closure's won-check suppresses the arm.
		g.hedge.Cancel()
		g.hedgeArmed = false
		s.pending--
	}
	s.Tracker(g.chain).Observe(g.wonAt - g.start)
	switch {
	case arm == ArmPrimary:
		s.stats.WinPrimary++
	case arm < g.clone:
		s.stats.WinClone++
	default:
		s.stats.WinHedge++
	}
	return true
}

// WonArm reports the winning arm's index (meaningful only once Won).
func (g *Group) WonArm() int { return g.wonArm }
