package experiments

import (
	"fmt"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/dne"
	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/metrics"
	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/telemetry"
)

// This file holds the resilience experiment family (res-storm, res-recovery,
// res-tenant): the paper's recovery machinery — RC retransmit/retry, shadow
// QP repair, DNE descriptor re-queue, DWRR isolation — measured under a
// declarative chaos.Schedule instead of hand-rolled outages. Every run
// finishes with a buffer-conservation check: after the faults clear and the
// load drains, each tenant pool must hold exactly its posted RQ ring.

// rigInjector builds a chaos injector over a dneRig with the standard
// targets registered: per node the SoC DMA ("dma@<node>"), the DPU ARM
// cores ("cores@<node>") and all conn pools ("qp@<node>"); per tenant the
// tenant's own pools on each node ("qp@<node>/<tenant>").
func rigInjector(r *dneRig, seed int64, tenants []string) *chaos.Injector {
	in := chaos.NewInjector(r.eng, r.net, seed)
	for _, side := range []struct {
		node fabric.NodeID
		e    *dne.Engine
	}{{"nodeA", r.ea}, {"nodeB", r.eb}} {
		side := side
		if side.node == "nodeA" {
			in.RegisterStaller("dma@nodeA", r.dpuA.SoCDMA())
			in.RegisterCores("cores@nodeA", r.dpuA.Cores()...)
		} else {
			in.RegisterStaller("dma@nodeB", r.dpuB.SoCDMA())
			in.RegisterCores("cores@nodeB", r.dpuB.Cores()...)
		}
		in.RegisterQPs("qp@"+string(side.node), func() []chaos.QPErrorTarget {
			pools := side.e.ConnPools()
			ts := make([]chaos.QPErrorTarget, len(pools))
			for i, cp := range pools {
				ts[i] = cp
			}
			return ts
		})
		peer := fabric.NodeID("nodeB")
		if side.node == "nodeB" {
			peer = "nodeA"
		}
		for _, tn := range tenants {
			tn := tn
			in.RegisterQPs(fmt.Sprintf("qp@%s/%s", side.node, tn), func() []chaos.QPErrorTarget {
				return []chaos.QPErrorTarget{side.e.ConnPool(peer, tn)}
			})
		}
	}
	return in
}

// sampleRate attaches a completion-rate sampler (window-sized Ticker
// starting at QPSetupTime) for each stat in stats, walking the slice — not
// a map — so float sums stay deterministic.
func sampleRate(r *dneRig, names []string, stats map[string]*echoClientStats, window time.Duration) map[string]*metrics.Series {
	series := make(map[string]*metrics.Series, len(names))
	for _, n := range names {
		series[n] = metrics.NewSeries(n)
	}
	last := make(map[string]uint64, len(names))
	r.eng.At(r.p.QPSetupTime, func() {
		for _, n := range names {
			last[n] = stats[n].count
		}
		r.eng.Ticker(window, func(now time.Duration) {
			for _, n := range names {
				s := stats[n]
				series[n].Add(now, float64(s.count-last[n])/window.Seconds())
				last[n] = s.count
			}
		})
	})
	return series
}

// leakCheck reports per-node leaked buffers for a tenant: pool in-use minus
// the posted RQ ring (which legitimately stays allocated). Zero means every
// in-flight buffer was reclaimed after recovery.
func leakCheck(r *dneRig, tenant string) (leakA, leakB int) {
	leakA = r.pools[tenant][0].InUse() - r.ea.SRQ(tenant).Posted()
	leakB = r.pools[tenant][1].InUse() - r.eb.SRQ(tenant).Posted()
	return leakA, leakB
}

// drainDur is how long each resilience run keeps the engines alive after
// the load stops: long enough for retransmit budgets to resolve, keeper
// repairs (one QPSetupTime each) to finish, and every buffer to come home.
const drainDur = 150 * time.Millisecond

// ---------------------------------------------------------------- res-storm

// StormResult is one res-storm sweep point.
type StormResult struct {
	Faulted bool

	Baseline float64 // RPS before the storm
	Storm    float64 // RPS during the storm window
	Recovery float64 // RPS at end of run, after faults clear
	Ratio    float64 // Recovery / Baseline

	Drops        uint64 // fabric messages lost to outages
	SendErrors   uint64 // engine-visible transport errors
	Retried      uint64 // descriptors re-queued by the engines
	RetryDrops   uint64 // descriptors that exhausted the retry budget
	Repairs      uint64 // QP re-handshakes
	Applied      int    // chaos events applied
	LeakA, LeakB int    // buffers unaccounted for after drain (want 0)

	Series *metrics.Series
	Total  time.Duration

	// Violations holds the SLO verdict for this point: the goodput-recovery
	// contract checked by metrics.RecoveryDetector over the sampled series
	// (empty = the contract held).
	Violations []telemetry.Violation
	// Telem is the run's metric scraper (nil unless Opts.Telemetry).
	Telem *telemetry.Scraper
	// RTT is the run's echo RTT distribution (nil unless Opts.Telemetry);
	// sweep points merge exactly via metrics.Hist.Merge.
	RTT *metrics.Hist
}

// runResStorm drives a single-tenant echo workload through a seeded storm
// of directed-link outages, loss and jitter windows, forced QP errors, a
// SoC DMA stall and a degraded-cores window. faulted=false is the control.
func runResStorm(o Opts, faulted bool) *StormResult {
	const tenant = "tenant1"
	p := params.Default()
	r := newDNERig(p, o.Seed, dne.OffPath, dne.SchedFCFS, []tenantSpec{{tenant, 1}})
	defer r.eng.Stop()

	total := o.scale(240*time.Millisecond, 720*time.Millisecond)
	base := p.QPSetupTime
	stormLo, stormHi := total/4, 3*total/4

	cliPort := r.ea.AttachFunction("cli-"+tenant, tenant)
	srvPort := r.eb.AttachFunction("srv-"+tenant, tenant)
	r.startEchoServer(tenant, srvPort)
	active := func(now time.Duration) bool { return now < base+total }
	stats := map[string]*echoClientStats{
		tenant: r.startEchoClients(tenant, cliPort, 16, 1024, active),
	}
	series := sampleRate(r, []string{tenant}, stats, total/48)
	sc := rigTelemetry(o, r, []string{tenant}, stats, total/48)

	in := rigInjector(r, o.Seed, []string{tenant})
	if faulted {
		// Seeded link storm across both directions. Outages are capped at
		// 2ms — well inside the ~3.5ms transport retry horizon — so faults
		// degrade goodput without wedging descriptors past the retry budget.
		events := o.pick([]int{24}, []int{64})[0]
		sched := in.LinkStorm([]fabric.NodeID{"nodeA", "nodeB"},
			base+stormLo, stormHi-stormLo-2*time.Millisecond, events, 2*time.Millisecond)
		// Plus the non-network failure modes, mid-storm.
		mid := base + total/2
		sched = append(sched,
			chaos.Event{At: base + stormLo + total/16, Fault: chaos.QPError{Target: "qp@nodeA", Count: 2}},
			chaos.Event{At: mid, Fault: chaos.QPError{Target: "qp@nodeB", Count: 2}},
			chaos.Event{At: mid, For: time.Millisecond, Fault: chaos.DMAStall{Target: "dma@nodeA"}},
			chaos.Event{At: mid, For: total / 16, Fault: chaos.SlowCores{Target: "cores@nodeB", Factor: 0.6}},
		)
		in.Install(sched)
	}

	r.eng.RunUntil(base + total + drainDur)

	res := &StormResult{
		Faulted: faulted,
		Series:  series[tenant],
		Total:   total,
		Applied: in.Applied(),
		Drops:   r.net.Drops(),
	}
	s := series[tenant]
	res.Baseline = s.MeanBetween(base+total/24, base+stormLo)
	res.Storm = s.MeanBetween(base+stormLo, base+stormHi)
	res.Recovery = s.MeanBetween(base+7*total/8, base+total)
	if res.Baseline > 0 {
		res.Ratio = res.Recovery / res.Baseline
	}
	// The recovery contract: after the storm window closes, goodput must
	// make a sustained (2-window) return to within 5% of its own pre-storm
	// baseline inside the remaining quarter of the run.
	clearAt, budget := base+stormHi, total/4
	det := metrics.RecoveryDetector{Baseline: res.Baseline, Tolerance: 0.05, Sustain: 2}
	if rt, ok := det.Detect(s, clearAt); !ok {
		res.Violations = []telemetry.Violation{{
			Rule: "goodput-recovers", Series: tenant, At: clearAt, Value: res.Baseline,
			Detail: fmt.Sprintf("no sustained return to within 5%% of baseline %g after fault clear", res.Baseline),
		}}
	} else if rt > budget {
		res.Violations = []telemetry.Violation{{
			Rule: "goodput-recovers", Series: tenant, At: clearAt + rt, Value: rt.Seconds(),
			Detail: fmt.Sprintf("recovered in %v, budget %v", rt, budget),
		}}
	}
	res.Telem = sc
	res.RTT = stats[tenant].rtt.Snapshot()
	_, _, _, _, serrA := r.ea.Stats()
	_, _, _, _, serrB := r.eb.Stats()
	res.SendErrors = serrA + serrB
	ra, da := r.ea.RetryStats()
	rb, db := r.eb.RetryStats()
	res.Retried, res.RetryDrops = ra+rb, da+db
	for _, e := range []*dne.Engine{r.ea, r.eb} {
		for _, cp := range e.ConnPools() {
			res.Repairs += cp.Repairs()
		}
	}
	res.LeakA, res.LeakB = leakCheck(r, tenant)
	return res
}

// ResStorm runs the control and storm points (independent engines, shardable).
func ResStorm(o Opts) []*StormResult {
	out := make([]*StormResult, 2)
	o.forEach(2, func(i int) {
		out[i] = runResStorm(o, i == 1)
	})
	return out
}

// RunResStorm adapts ResStorm to the registry.
func RunResStorm(o Opts) []*Table {
	res := ResStorm(o)
	t := &Table{
		Title:   "res-storm — goodput under a seeded fault storm (16 clients, 1 KB echo)",
		Columns: []string{"run", "baseline", "storm", "recovered", "rec/base", "SLO", "drops", "retries", "repairs", "leaks", "spark"},
	}
	names := make([]string, len(res))
	scs := make([]*telemetry.Scraper, len(res))
	merged := metrics.NewHist()
	for i, r := range res {
		name := "control"
		if r.Faulted {
			name = "storm"
		}
		names[i] = "res-storm/" + name
		scs[i] = r.Telem
		merged.Merge(r.RTT)
		slo := "ok"
		if len(r.Violations) > 0 {
			slo = fmt.Sprintf("%d violated", len(r.Violations))
		}
		t.Rows = append(t.Rows, []string{
			name,
			fRPS(r.Baseline), fRPS(r.Storm), fRPS(r.Recovery), fRatio(r.Ratio), slo,
			fmt.Sprintf("%d", r.Drops),
			fmt.Sprintf("%d", r.Retried),
			fmt.Sprintf("%d", r.Repairs),
			fmt.Sprintf("%d", r.LeakA+r.LeakB),
			r.Series.Sparkline(24),
		})
	}
	t.Note = "storm window spans the middle half of the run; SLO = watchdog verdict on the declarative goodput-recovery rule (sustained return to within 5% of baseline inside the final quarter), with zero leaked buffers"
	if merged.Count() > 0 {
		t.Note += fmt.Sprintf("; echo RTT merged across runs: p50 %s p99 %s (n=%d)",
			fLat(merged.P50()), fLat(merged.P99()), merged.Count())
	}
	sinkScrapers(o, names, scs)
	return []*Table{t}
}

// ------------------------------------------------------------- res-recovery

// recoveryConfig is one partition scenario.
type recoveryConfig struct {
	label  string
	dur    time.Duration
	oneWay bool
}

func recoveryConfigs() []recoveryConfig {
	return []recoveryConfig{
		{label: "1ms sym", dur: time.Millisecond},
		{label: "4ms sym", dur: 4 * time.Millisecond},
		{label: "4ms one-way", dur: 4 * time.Millisecond, oneWay: true},
	}
}

// RecoveryResult is one res-recovery sweep point.
type RecoveryResult struct {
	Label        string
	PartitionDur time.Duration
	OneWay       bool

	Baseline     float64       // pre-fault RPS
	Recovered    bool          // detector found a sustained return to baseline
	RecoveryTime time.Duration // fault-clear -> sustained recovery
	PostHeal     float64       // steady RPS after healing
	Drops        uint64
	Repairs      uint64
	LeakA, LeakB int

	// Telem is the run's metric scraper (nil unless Opts.Telemetry).
	Telem *telemetry.Scraper
}

// runResRecovery partitions the two nodes mid-run and measures, with
// metrics.RecoveryDetector, how long goodput takes to return to within 5%
// of the pre-fault baseline once the partition heals.
func runResRecovery(o Opts, cfg recoveryConfig) *RecoveryResult {
	const tenant = "tenant1"
	p := params.Default()
	r := newDNERig(p, o.Seed, dne.OffPath, dne.SchedFCFS, []tenantSpec{{tenant, 1}})
	defer r.eng.Stop()

	total := o.scale(160*time.Millisecond, 400*time.Millisecond)
	base := p.QPSetupTime
	faultAt := base + total/3
	clearAt := faultAt + cfg.dur

	cliPort := r.ea.AttachFunction("cli-"+tenant, tenant)
	srvPort := r.eb.AttachFunction("srv-"+tenant, tenant)
	r.startEchoServer(tenant, srvPort)
	active := func(now time.Duration) bool { return now < base+total }
	stats := map[string]*echoClientStats{
		tenant: r.startEchoClients(tenant, cliPort, 16, 1024, active),
	}
	series := sampleRate(r, []string{tenant}, stats, total/96)
	sc := rigTelemetry(o, r, []string{tenant}, stats, total/96)

	in := rigInjector(r, o.Seed, []string{tenant})
	in.Install(chaos.Schedule{{
		At: faultAt, For: cfg.dur,
		Fault: chaos.Partition{A: []fabric.NodeID{"nodeA"}, B: []fabric.NodeID{"nodeB"}, OneWay: cfg.oneWay},
	}})

	r.eng.RunUntil(base + total + drainDur)

	s := series[tenant]
	res := &RecoveryResult{
		Label:        cfg.label,
		PartitionDur: cfg.dur,
		OneWay:       cfg.oneWay,
		Baseline:     s.MeanBetween(base+total/24, faultAt),
		PostHeal:     s.MeanBetween(clearAt+total/6, base+total),
		Drops:        r.net.Drops(),
	}
	det := metrics.RecoveryDetector{Baseline: res.Baseline, Tolerance: 0.05, Sustain: 2}
	res.RecoveryTime, res.Recovered = det.Detect(s, clearAt)
	for _, e := range []*dne.Engine{r.ea, r.eb} {
		for _, cp := range e.ConnPools() {
			res.Repairs += cp.Repairs()
		}
	}
	res.LeakA, res.LeakB = leakCheck(r, tenant)
	res.Telem = sc
	return res
}

// ResRecovery sweeps the partition scenarios (independent engines).
func ResRecovery(o Opts) []*RecoveryResult {
	cfgs := recoveryConfigs()
	out := make([]*RecoveryResult, len(cfgs))
	o.forEach(len(cfgs), func(i int) {
		out[i] = runResRecovery(o, cfgs[i])
	})
	return out
}

// RunResRecovery adapts ResRecovery to the registry.
func RunResRecovery(o Opts) []*Table {
	res := ResRecovery(o)
	t := &Table{
		Title:   "res-recovery — time to recover goodput after a partition heals",
		Columns: []string{"partition", "baseline", "recovery time", "post-heal", "drops", "repairs", "leaks"},
	}
	names := make([]string, len(res))
	scs := make([]*telemetry.Scraper, len(res))
	for i, r := range res {
		names[i] = "res-recovery/" + r.Label
		scs[i] = r.Telem
		rec := "never"
		if r.Recovered {
			rec = fLat(r.RecoveryTime)
		}
		t.Rows = append(t.Rows, []string{
			r.Label, fRPS(r.Baseline), rec, fRPS(r.PostHeal),
			fmt.Sprintf("%d", r.Drops),
			fmt.Sprintf("%d", r.Repairs),
			fmt.Sprintf("%d", r.LeakA+r.LeakB),
		})
	}
	sinkScrapers(o, names, scs)
	t.Note = "recovery = first sustained (2 windows) return to within 5% of the pre-fault baseline; errored QPs repair in the background (one QPSetupTime each) while surviving QPs carry traffic"
	return []*Table{t}
}

// --------------------------------------------------------------- res-tenant

// TenantIsolationResult is one res-tenant sweep point (one scheduler).
type TenantIsolationResult struct {
	Sched dne.SchedulerKind

	HealthyPre   float64 // healthy tenant RPS before the co-tenant storm
	HealthyStorm float64 // healthy tenant RPS while the co-tenant is stormed
	HealthyPost  float64
	NoisyPre     float64
	NoisyStorm   float64
	// Retention is HealthyStorm / HealthyPre: 1.0 means the co-tenant's
	// fault storm did not touch the healthy tenant's share.
	Retention float64

	Repairs                    uint64
	LeakHealthyA, LeakHealthyB int
	LeakNoisyA, LeakNoisyB     int
	Total                      time.Duration

	Healthy, Noisy *metrics.Series

	// Telem is the run's metric scraper (nil unless Opts.Telemetry).
	Telem *telemetry.Scraper
}

// runResTenant runs a healthy closed-loop tenant (weight 3) against a noisy
// open-loop co-tenant (weight 1) on a capped engine, then storms the noisy
// tenant's QPs: every flushed send re-enters the engine's retry path, so a
// scheduler without isolation lets the retry amplification crowd out the
// healthy tenant.
func runResTenant(o Opts, sched dne.SchedulerKind) *TenantIsolationResult {
	const healthy, noisy = "healthy", "noisy"
	p := params.Default()
	// Cap the engine (~110K RPS, as in Fig. 15) so contention is at the DNE.
	p.DNEExtraPerMsg = 4600 * time.Nanosecond
	r := newDNERig(p, o.Seed, dne.OffPath, sched,
		[]tenantSpec{{healthy, 3}, {noisy, 1}})
	defer r.eng.Stop()

	total := o.scale(180*time.Millisecond, 600*time.Millisecond)
	base := p.QPSetupTime
	stormLo, stormHi := base+total/3, base+2*total/3

	names := []string{healthy, noisy}
	stats := make(map[string]*echoClientStats, 2)
	for _, tn := range names {
		cliPort := r.ea.AttachFunction("cli-"+tn, tn)
		srvPort := r.eb.AttachFunction("srv-"+tn, tn)
		r.startEchoServer(tn, srvPort)
		active := func(now time.Duration) bool { return now < base+total }
		if tn == healthy {
			stats[tn] = r.startEchoClients(tn, cliPort, 32, 1024, active)
		} else {
			stats[tn] = r.startOpenLoopSender(tn, cliPort, 1024, 15*time.Microsecond, active)
		}
	}
	series := sampleRate(r, names, stats, total/48)
	sc := rigTelemetry(o, r, names, stats, total/48)

	in := rigInjector(r, o.Seed, names)
	// Fault storm on the noisy tenant only: error its entire conn pools on
	// both sides every 2ms for the middle third of the run. Repairs take a
	// QPSetupTime each, so the pool is error-flushing for the whole window.
	var sched2 chaos.Schedule
	for at := stormLo; at < stormHi; at += 2 * time.Millisecond {
		sched2 = append(sched2,
			chaos.Event{At: at, Fault: chaos.QPError{Target: "qp@nodeA/" + noisy}},
			chaos.Event{At: at, Fault: chaos.QPError{Target: "qp@nodeB/" + noisy}},
		)
	}
	in.Install(sched2)

	r.eng.RunUntil(base + total + drainDur)

	res := &TenantIsolationResult{
		Sched:   sched,
		Total:   total,
		Healthy: series[healthy],
		Noisy:   series[noisy],
	}
	res.HealthyPre = series[healthy].MeanBetween(base+total/24, stormLo)
	res.HealthyStorm = series[healthy].MeanBetween(stormLo, stormHi)
	res.HealthyPost = series[healthy].MeanBetween(stormHi+total/12, base+total)
	res.NoisyPre = series[noisy].MeanBetween(base+total/24, stormLo)
	res.NoisyStorm = series[noisy].MeanBetween(stormLo, stormHi)
	if res.HealthyPre > 0 {
		res.Retention = res.HealthyStorm / res.HealthyPre
	}
	for _, e := range []*dne.Engine{r.ea, r.eb} {
		for _, cp := range e.ConnPools() {
			res.Repairs += cp.Repairs()
		}
	}
	res.LeakHealthyA, res.LeakHealthyB = leakCheck(r, healthy)
	res.LeakNoisyA, res.LeakNoisyB = leakCheck(r, noisy)
	res.Telem = sc
	return res
}

// ResTenant sweeps FCFS vs DWRR (independent engines).
func ResTenant(o Opts) []*TenantIsolationResult {
	scheds := []dne.SchedulerKind{dne.SchedFCFS, dne.SchedDWRR}
	out := make([]*TenantIsolationResult, len(scheds))
	o.forEach(len(scheds), func(i int) {
		out[i] = runResTenant(o, scheds[i])
	})
	return out
}

// RunResTenant adapts ResTenant to the registry.
func RunResTenant(o Opts) []*Table {
	res := ResTenant(o)
	t := &Table{
		Title:   "res-tenant — healthy tenant (w=3) vs fault-stormed co-tenant (w=1)",
		Columns: []string{"sched", "healthy pre", "healthy storm", "retention", "healthy post", "noisy pre", "noisy storm", "repairs", "leaks", "healthy spark"},
	}
	names := make([]string, len(res))
	scs := make([]*telemetry.Scraper, len(res))
	for i, r := range res {
		name := "FCFS"
		if r.Sched == dne.SchedDWRR {
			name = "DWRR"
		}
		names[i] = "res-tenant/" + name
		scs[i] = r.Telem
		t.Rows = append(t.Rows, []string{
			name,
			fRPS(r.HealthyPre), fRPS(r.HealthyStorm), fRatio(r.Retention), fRPS(r.HealthyPost),
			fRPS(r.NoisyPre), fRPS(r.NoisyStorm),
			fmt.Sprintf("%d", r.Repairs),
			fmt.Sprintf("%d", r.LeakHealthyA+r.LeakHealthyB+r.LeakNoisyA+r.LeakNoisyB),
			r.Healthy.Sparkline(24),
		})
	}
	sinkScrapers(o, names, scs)
	t.Note = "under DWRR the healthy tenant keeps >=90% of its pre-storm rate while the co-tenant's QPs are error-flushed; FCFS lets the retry amplification bleed through"
	return []*Table{t}
}

// startOpenLoopSender drives tenant with a fixed-period open-loop request
// stream (no waiting for responses) — the aggressive co-tenant in
// res-tenant. A drain loop recycles responses; stats.count counts them.
func (r *dneRig) startOpenLoopSender(tenant string, port *dne.FnPort, payload int, period time.Duration, active func(now time.Duration) bool) *echoClientStats {
	core := sim.NewProcessor(r.eng, "cli-core-"+tenant, r.p.HostCoreSpeed)
	pool := r.pools[tenant][0]
	cli := mempool.Owner("cli-" + tenant)
	stats := &echoClientStats{}
	// sent[seq-1] is when request seq left, read by each reply to it
	// (duplicates included).
	var sent []time.Duration
	var drain *portReceiver
	drain = startPortReceiver(r.eng, port, core, func(d mempool.Descriptor) {
		stats.count++
		stats.rtt.Observe(r.eng.Now() - sent[d.Seq-1])
		if err := pool.Put(d.Buf, cli); err != nil {
			panic(err)
		}
		drain.recv()
	})
	var seq uint64
	var send func()
	tx := newPortSender(port, core, "srv-"+tenant, func() { r.eng.After(period, send) })
	send = func() {
		if active != nil && !active(r.eng.Now()) {
			r.eng.After(500*time.Microsecond, send)
			return
		}
		buf, err := pool.Get(cli)
		if err != nil {
			// Pool exhausted (responses stuck behind the storm): back off
			// instead of spinning.
			r.eng.After(8*period, send)
			return
		}
		seq++
		sent = append(sent, r.eng.Now())
		tx.send(mempool.Descriptor{Tenant: tenant, Buf: buf, Len: int32(payload), Seq: seq})
	}
	r.eng.Immediate(func() { r.onReady(send) })
	return stats
}

// Resilience returns the resilience experiment registry.
func Resilience() []Experiment {
	return []Experiment{
		{ID: "res-storm", Title: "Resilience — goodput under a seeded fault storm", Run: RunResStorm},
		{ID: "res-recovery", Title: "Resilience — recovery time after a partition heals", Run: RunResRecovery},
		{ID: "res-tenant", Title: "Resilience — tenant isolation under a faulty co-tenant", Run: RunResTenant},
	}
}
