package simtest

import (
	"fmt"
	"math"
	"strings"
	"time"

	"nadino/internal/core"
	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// Violation is one invariant failure, stamped with the virtual time it was
// detected at.
type Violation struct {
	At        time.Duration
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Invariant, v.Detail)
}

// Invariant is one registered system-wide property. Check runs at every
// check tick with final false (the event-boundary approximation: the
// checker ticker interleaves with all simulation events at a fixed virtual
// period; the first finding is reported and the invariant stops ticking),
// and once after the drain with final true, when the world must have
// quiesced (every finding is reported). A property that only holds at one
// of the two returns nil at the other.
type Invariant struct {
	Name  string
	Desc  string
	Check func(r *Rig, final bool) []string
}

// atQuiesce adapts an end-of-run-only check.
func atQuiesce(check func(r *Rig) []string) func(*Rig, bool) []string {
	return func(r *Rig, final bool) []string {
		if !final {
			return nil
		}
		return check(r)
	}
}

// Invariants returns the global registry, in evaluation order. Every fuzz
// run checks all of them; a scenario passes only if none fire.
func Invariants() []Invariant {
	return []Invariant{
		{
			Name: "clock-monotonic",
			Desc: "virtual time never moves backwards between check ticks",
			Check: func(r *Rig, final bool) []string {
				now := r.eng.Now()
				if now < r.lastNow {
					return []string{fmt.Sprintf("clock moved %v -> %v", r.lastNow, now)}
				}
				r.lastNow = now
				return nil
			},
		},
		{
			Name:  "busy-accounting",
			Desc:  "every processor's busy time is monotone and bounded by wall time",
			Check: checkBusy,
		},
		{
			Name:  "buffer-conservation",
			Desc:  "pool accounting audits clean; no buffer leaks past quiesce",
			Check: checkBuffers,
		},
		{
			Name:  "request-conservation",
			Desc:  "issued = completed + in-flight, one reply per request; in-flight bounded by data-plane drops",
			Check: checkRequests,
		},
		{
			Name:  "qp-legality",
			Desc:  "QP state machine legal; pools repaired and CQs drained at quiesce",
			Check: checkQPs,
		},
		{
			Name:  "srq-accounting",
			Desc:  "receive rings never overfill and are fully replenished at quiesce",
			Check: checkSRQs,
		},
		{
			Name:  "dwrr-fairness",
			Desc:  "symmetric DWRR tenants complete within bounded skew",
			Check: atQuiesce(checkFairness),
		},
		{
			Name:  "telemetry-consistency",
			Desc:  "scraped series are well-timed and reconcile with the ledger",
			Check: atQuiesce(checkTelemetry),
		},
		{
			Name:  "trace-consistency",
			Desc:  "tracer totals reconcile with the request ledger",
			Check: atQuiesce(checkTraces),
		},
		{
			Name: "ownership-audit",
			Desc: "cross-tenant transfer chains obey the exclusive-ownership rules",
			Check: atQuiesce(func(r *Rig) []string {
				return append([]string(nil), r.auditErrs...)
			}),
		},
		{
			Name:  "route-consistency",
			Desc:  "gateway fabric: no forwarding loops, healed tables route direct, forwarded messages conserved",
			Check: atQuiesce(checkRoutes),
		},
		{
			Name:  "speculation-safety",
			Desc:  "speculated requests win at most once and resolve no more arms than fired; no hedge timer outlives quiesce",
			Check: checkSpec,
		},
		{
			Name: "sched-equivalence",
			Desc: "timing-wheel engine fires in the same order and at the same times as a pure-heap reference",
			Check: atQuiesce(func(r *Rig) []string {
				// Seeded from the scenario so every fuzz case probes a distinct
				// schedule/cancel/re-arm script across all wheel levels.
				if err := sim.CheckEquivalence(r.sc.Seed, 400); err != nil {
					return []string{err.Error()}
				}
				return nil
			}),
		},
	}
}

// checkBusy requires every processor's busy time to grow monotonically and
// never exceed elapsed time, at every tick.
func checkBusy(r *Rig, final bool) []string {
	if final {
		return nil
	}
	now := r.eng.Now()
	for _, c := range r.c.Processors() {
		b := c.BusyTime()
		if b > now {
			return []string{fmt.Sprintf("%s busy %v exceeds elapsed %v", c.Name(), b, now)}
		}
		if last := r.lastBusy[c]; b < last {
			return []string{fmt.Sprintf("%s busy time shrank %v -> %v", c.Name(), last, b)}
		}
		r.lastBusy[c] = b
	}
	return nil
}

// checkBuffers audits every tenant pool — each worker node's and the
// ingress backend's — against the buffers it lends out for good: a worker
// pool backs its engine's receive ring and the gateway's landing window, an
// ingress pool its receive ring and its cache. Mid-run a pool holds at
// least those; at quiesce exactly those, so a harness leak (the planted
// defect) or a data-plane leak surfaces as a per-pool surplus.
func checkBuffers(r *Rig, final bool) []string {
	var out []string
	check := func(label string, pool *mempool.Pool, held int, holders string) {
		if err := pool.Audit(); err != nil {
			out = append(out, fmt.Sprintf("%s: %v", label, err))
		} else if n := pool.InUse(); n < held {
			out = append(out, fmt.Sprintf("%s: %d buffers in use but %d held by %s", label, n, held, holders))
		} else if final && n != held {
			out = append(out, fmt.Sprintf(
				"%s: %d buffers in use at quiesce, expected only the %d held by %s (leak of %d)",
				label, n, held, holders, n-held))
		}
	}
	for _, n := range r.c.Nodes() {
		for i, pool := range n.Pools {
			tenant := r.tenants[i].sc.Name
			held := n.Engine.SRQ(tenant).Posted()
			if n.Gateway != nil {
				held += n.Gateway.SlotsHeld(tenant)
			}
			check("tenant "+tenant+" pool on "+n.Name, pool, held, "the receive ring and gateway window")
		}
	}
	ing, _ := r.c.Ingress()
	for _, t := range ing.Tenants {
		check("tenant "+t.Name+" ingress pool", t.Pool, t.SRQ.Posted()+t.Cache.Len(), "the receive ring and cache")
	}
	return out
}

// drops sums every counted data-plane loss: engine no-route, no-port and
// retry-budget drops, gateway drops, and requests the ingress dropped at
// admission or lost to a send error.
func (r *Rig) drops() uint64 {
	var total uint64
	for _, n := range r.c.Nodes() {
		_, _, noRoute, noPort, _ := n.Engine.Stats()
		_, retry := n.Engine.RetryStats()
		total += noRoute + noPort + retry
		if n.Gateway != nil {
			total += n.Gateway.Stats().Dropped
		}
	}
	ing, _ := r.c.Ingress()
	return total + ing.Drops + ing.SendErrors
}

// checkRequests checks the SubmitChain-boundary ledger: it balances and no
// request is answered twice, always; at quiesce every unanswered request is
// accounted to a drop counter, and fault-free scenarios lose nothing.
func checkRequests(r *Rig, final bool) []string {
	var out []string
	var inFlight uint64
	for _, tr := range r.tenants {
		if tr.issued != tr.completed+tr.inFlight {
			out = append(out, fmt.Sprintf("tenant %s: issued %d != completed %d + in-flight %d",
				tr.sc.Name, tr.issued, tr.completed, tr.inFlight))
		}
		if tr.doubles > 0 {
			out = append(out, fmt.Sprintf("tenant %s: %d replies to requests already answered",
				tr.sc.Name, tr.doubles))
		}
		inFlight += tr.inFlight
	}
	if !final {
		return out
	}
	if drops := r.drops(); inFlight > drops {
		out = append(out, fmt.Sprintf(
			"%d requests still in flight at quiesce but the data plane only dropped %d", inFlight, drops))
	}
	if len(r.sc.Faults) == 0 && inFlight > 0 {
		out = append(out, fmt.Sprintf("fault-free run left %d requests unfinished at quiesce", inFlight))
	}
	return out
}

// checkQPs rejects impossible QP states — a negative outstanding count —
// and at quiesce requires full recovery: every errored QP repaired (the
// engines', the gateways' and the ingress's), no WR outstanding, every CQ
// drained and every engine scheduler empty.
func checkQPs(r *Rig, final bool) []string {
	var out []string
	pools := func(owner string, cps []*rdma.ConnPool) {
		for _, cp := range cps {
			if n := cp.ErroredCount(); final && n > 0 {
				out = append(out, fmt.Sprintf("%s: %d %s QPs still errored at quiesce", owner, n, cp.Tenant))
			}
			for _, qp := range cp.Conns() {
				if o := qp.Outstanding(); o < 0 || final && o != 0 {
					out = append(out, fmt.Sprintf("%s qp%d: %d WRs outstanding", owner, qp.ID(), o))
				}
			}
		}
	}
	cq := func(owner string, cq *rdma.CQ) {
		if n := cq.Len(); final && n > 0 {
			out = append(out, fmt.Sprintf("%s: %d CQEs unpolled at quiesce", owner, n))
		}
	}
	for _, n := range r.c.Nodes() {
		pools("node "+n.Name, n.Engine.ConnPools())
		cq("node "+n.Name, n.Engine.CQ())
		if p := n.Engine.SchedPending(); final && p > 0 {
			out = append(out, fmt.Sprintf("node %s: %d descriptors stuck in scheduler", n.Name, p))
		}
		if n.Gateway != nil {
			pools("gateway "+n.Name, n.Gateway.Links())
			cq("gateway "+n.Name, n.Gateway.CQ())
		}
	}
	ing, _ := r.c.Ingress()
	for _, t := range ing.Tenants {
		pools("ingress", t.Conns)
	}
	cq("ingress", ing.CQ)
	return out
}

// checkSRQs bounds the receive rings: no engine keeper or ingress backend
// may post past its per-tenant target, and at quiesce every ring must be
// fully replenished.
func checkSRQs(r *Rig, final bool) []string {
	var out []string
	check := func(where string, posted, target int) {
		if posted > target || final && posted != target {
			out = append(out, fmt.Sprintf("%s: ring at %d/%d", where, posted, target))
		}
	}
	for _, n := range r.c.Nodes() {
		for _, tr := range r.tenants {
			check("node "+n.Name+" tenant "+tr.sc.Name, n.Engine.SRQ(tr.sc.Name).Posted(), n.Engine.RQTarget())
		}
	}
	ing, _ := r.c.Ingress()
	for _, t := range ing.Tenants {
		check("ingress tenant "+t.Name, t.SRQ.Posted(), t.Ring)
	}
	return out
}

// checkRoutes is the gateway-fabric invariant (route-consistency): the
// forwarded-message ledger closes, a healed fabric converges back to direct
// next hops, and hop-by-hop walks never loop. Every node hosts every
// tenant's pool, so detour legs land in pools buffer-conservation audits.
func checkRoutes(r *Rig) []string {
	if !r.sc.Gateways {
		return nil
	}
	var out []string
	nodes := r.c.Nodes()
	net := r.c.Net()

	// Conservation: transit re-entries are internal to the tier, so the
	// descriptors accepted from engines equal deliveries plus drops, with
	// nothing queued or on the wire at quiesce.
	var in, delivered, dropped uint64
	for _, n := range nodes {
		s := n.Gateway.Stats()
		in += s.AcceptIn
		delivered += s.Delivered
		dropped += s.Dropped
		if p := n.Gateway.Pending(); p > 0 {
			out = append(out, fmt.Sprintf("gateway %s: %d forwards still queued at quiesce", n.Name, p))
		}
		if w := n.Gateway.InflightWrites(); w > 0 {
			out = append(out, fmt.Sprintf("gateway %s: %d writes still in flight at quiesce", n.Name, w))
		}
	}
	if in != delivered+dropped {
		out = append(out, fmt.Sprintf(
			"forwarded-message conservation broken: acceptIn=%d != delivered=%d + dropped=%d",
			in, delivered, dropped))
	}

	byName := make(map[fabric.NodeID]core.NodeView, len(nodes))
	healed := true
	for i, a := range nodes {
		id := fabric.NodeID(a.Name)
		byName[id] = a
		if net.Down(id) {
			healed = false
		}
		for _, b := range nodes[i+1:] {
			if net.LinkDown(id, fabric.NodeID(b.Name)) || net.LinkDown(fabric.NodeID(b.Name), id) {
				healed = false
			}
		}
	}

	// Every route-table function entry must point at a known node; when the
	// fabric has healed (all faults expire before the drain ends, and the
	// keeper refreshes every GwFailoverInterval) it must also be live and
	// every next hop must be direct again.
	for _, n := range nodes {
		rt := n.Gateway.Routes()
		for _, fn := range rt.Functions() {
			node, _ := rt.NodeOf(fn)
			if _, known := byName[node]; !known {
				out = append(out, fmt.Sprintf("gateway %s: function %s routed to unknown node %q",
					n.Name, fn, node))
			} else if healed && net.Down(node) {
				out = append(out, fmt.Sprintf("gateway %s: function %s routed to down node %s after heal",
					n.Name, fn, node))
			}
		}
		for _, peer := range nodes {
			id := fabric.NodeID(peer.Name)
			if !healed || peer.Name == n.Name {
				continue
			}
			if hop := rt.NextHop(id); hop != id {
				out = append(out, fmt.Sprintf(
					"gateway %s: next hop for %s still detours via %s after heal", n.Name, peer.Name, hop))
			}
		}
	}

	// No forwarding loops: walking next hops toward any destination reaches
	// it without revisiting a node, whatever state the tables are in.
	for _, src := range nodes {
		for _, dst := range nodes {
			cur := src
			visited := map[string]bool{src.Name: true}
			for cur.Name != dst.Name {
				hop := cur.Gateway.Routes().NextHop(fabric.NodeID(dst.Name))
				next, known := byName[hop]
				if visited[string(hop)] || !known {
					out = append(out, fmt.Sprintf("forwarding toward %s: gateway %s hands off to %q, already visited or unknown",
						dst.Name, cur.Name, hop))
					break
				}
				visited[string(hop)] = true
				cur = next
			}
		}
	}
	return out
}

// checkSpec is the speculation ledger of the ingress controller: a group
// wins at most once and arm resolutions (wins, boundary cancels, mid-plane
// kills) never exceed arms fired. At quiesce no hedge timer may still be
// armed, and when no fault or planted defect could strand arms in the data
// plane every launched group completed at the client boundary and every
// fired arm resolved. Loser buffer return is covered by
// buffer-conservation, and generation safety by the pool audits: a cancel
// that touched a recycled buffer would trip both.
func checkSpec(r *Rig, final bool) []string {
	sp := r.c.Gateway().Spec()
	if sp == nil {
		return nil
	}
	var out []string
	st := sp.Stats()
	resolved := st.Wins() + st.Cancels + st.Kills
	if st.Wins() > st.Launched {
		out = append(out, fmt.Sprintf("%d wins for %d launches: %+v", st.Wins(), st.Launched, st))
	}
	if resolved > st.Arms {
		out = append(out, fmt.Sprintf("%d resolutions exceed %d arms fired: %+v", resolved, st.Arms, st))
	}
	if !final {
		return out
	}
	if n := sp.PendingHedges(); n != 0 {
		out = append(out, fmt.Sprintf("%d hedge timers still armed at quiesce", n))
	}
	if len(r.sc.Faults) > 0 || r.sc.Defect != "" {
		return out
	}
	var completed uint64
	for _, tr := range r.tenants {
		completed += tr.completed
	}
	if st.Launched != completed {
		out = append(out, fmt.Sprintf(
			"fault-free run launched %d groups but completed %d requests", st.Launched, completed))
	}
	if resolved != st.Arms {
		out = append(out, fmt.Sprintf(
			"fault-free run fired %d arms but resolved only %d (wins=%d cancels=%d kills=%d)",
			st.Arms, resolved, st.Wins(), st.Cancels, st.Kills))
	}
	return out
}

// fairnessFloor is the minimum share of the per-tenant mean any symmetric
// DWRR tenant must reach inside the load window. DWRR's deficit bound is
// much tighter than this; the slack absorbs warmup and window edges.
const fairnessFloor = 0.55

// fairnessMinTotal gates the check on enough completions for the bound to
// be meaningful.
const fairnessMinTotal = 300

// checkFairness bounds goodput skew for fairness-eligible scenarios:
// identical closed-loop tenants under the engines' DWRR scheduler with no
// faults must split the window's completions near-evenly.
func checkFairness(r *Rig) []string {
	if !r.sc.Symmetric() || len(r.sc.Faults) > 0 || r.sc.Defect != "" {
		return nil
	}
	var total uint64
	min, max := ^uint64(0), uint64(0)
	for _, tr := range r.tenants {
		c := tr.windowCompleted
		total += c
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if total < fairnessMinTotal {
		return nil
	}
	mean := float64(total) / float64(len(r.tenants))
	if float64(min) < fairnessFloor*mean {
		return []string{fmt.Sprintf(
			"symmetric DWRR tenants skewed: min %d, max %d, mean %.1f over %d tenants",
			min, max, mean, len(r.tenants))}
	}
	return nil
}

// checkTelemetry validates the series Cluster.Instrument registers against
// the clock and the ledger: samples land at exact period multiples in
// strict order; every value is finite and non-negative; utilizations stay
// within [0,1]; engine receive rings never read above their target; and the
// cluster goodput series integrates back to at most the ledger's
// completions.
func checkTelemetry(r *Rig) []string {
	var out []string
	var completed uint64
	for _, tr := range r.tenants {
		completed += tr.completed
	}
	ring := float64(r.c.Nodes()[0].Engine.RQTarget())
	period := r.scraper.Period()
	var goodput float64
	for _, s := range r.scraper.Series() {
		last := time.Duration(0)
		for i, pt := range s.Points {
			var bad string
			switch {
			case pt.T <= last && i > 0:
				bad = fmt.Sprintf("non-increasing timestamp after %v", last)
			case pt.T%period != 0:
				bad = fmt.Sprintf("off the %v grid", period)
			case pt.V < 0 || math.IsNaN(pt.V) || math.IsInf(pt.V, 0):
				bad = fmt.Sprintf("value %g", pt.V)
			case strings.Contains(s.Name, "_util") && pt.V > 1+1e-9:
				bad = fmt.Sprintf("utilization %g above 1", pt.V)
			case strings.HasPrefix(s.Name, "dne.srq_posted") && pt.V > ring:
				bad = fmt.Sprintf("%g posted above the %g ring", pt.V, ring)
			}
			if bad != "" {
				out = append(out, fmt.Sprintf("series %s at %v: %s", s.Name, pt.T, bad))
				break
			}
			last = pt.T
			if strings.HasPrefix(s.Name, "cluster.goodput") {
				goodput += pt.V * period.Seconds()
			}
		}
	}
	if goodput > float64(completed)+0.5 {
		out = append(out, fmt.Sprintf(
			"cluster goodput series integrates to %.1f but the ledger completed only %d", goodput, completed))
	}
	return out
}

// checkTraces reconciles the tracer with the request ledger: every finished
// request was completed, every unfinished one is still in flight, and
// nothing was dropped (the rig traces without a limit).
func checkTraces(r *Rig) []string {
	rep := r.tracer.Report()
	var completed, inFlight uint64
	for _, tr := range r.tenants {
		completed += tr.completed
		inFlight += tr.inFlight
	}
	var out []string
	if uint64(rep.Requests) != completed {
		out = append(out, fmt.Sprintf("tracer finished %d requests but ledger completed %d",
			rep.Requests, completed))
	}
	if uint64(rep.Unfinished) != inFlight {
		out = append(out, fmt.Sprintf("tracer has %d unfinished requests but ledger has %d in flight",
			rep.Unfinished, inFlight))
	}
	if rep.Dropped != 0 {
		out = append(out, fmt.Sprintf("tracer dropped %d requests with no limit set", rep.Dropped))
	}
	return out
}
