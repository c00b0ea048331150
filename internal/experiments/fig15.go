package experiments

import (
	"fmt"
	"time"

	"nadino/internal/dne"
	"nadino/internal/metrics"
	"nadino/internal/params"
)

// TenantLoad describes one tenant's echo workload and activity window.
type TenantLoad struct {
	Name    string
	Weight  int
	Clients int
	// Start/Stop bound the active window (Stop 0 = entire run).
	Start, Stop time.Duration
}

// TenancyResult holds per-tenant RPS time series plus summary shares.
type TenancyResult struct {
	Sched   dne.SchedulerKind
	Total   time.Duration
	Tenants []TenantLoad
	// Series maps tenant name to its completion-rate series.
	Series map[string]*metrics.Series
	// Aggregate is the sum-rate series.
	Aggregate *metrics.Series
}

// runTenancy drives the multi-tenant echo workload of §4.2 on a DNE pair
// whose worker is capped (params.DNEExtraPerMsg) to the paper's ~110K RPS
// single-core configuration.
func runTenancy(o Opts, sched dne.SchedulerKind, tenants []TenantLoad, total time.Duration) *TenancyResult {
	p := params.Default()
	// Cap the engine so bandwidth contention is at the DNE, as configured
	// in §4.2 ("a maximum throughput of approximately 110K RPS").
	p.DNEExtraPerMsg = 4600 * time.Nanosecond
	specs := make([]tenantSpec, len(tenants))
	for i, t := range tenants {
		specs[i] = tenantSpec{name: t.Name, weight: t.Weight}
	}
	r := newDNERig(p, o.Seed, dne.OffPath, sched, specs)
	defer r.eng.Stop()

	names := make([]string, len(tenants))
	stats := make(map[string]*echoClientStats)
	for i, t := range tenants {
		t := t
		cliPort := r.ea.AttachFunction("cli-"+t.Name, t.Name)
		srvPort := r.eb.AttachFunction("srv-"+t.Name, t.Name)
		r.startEchoServer(t.Name, srvPort)
		active := func(now time.Duration) bool {
			if now < r.p.QPSetupTime+t.Start {
				return false
			}
			if t.Stop > 0 && now > r.p.QPSetupTime+t.Stop {
				return false
			}
			return true
		}
		stats[t.Name] = r.startEchoClients(t.Name, cliPort, t.Clients, 1024, active)
		names[i] = t.Name
	}
	// Sample per-tenant completion rates, starting once setup finished so
	// the first window is not polluted by connection establishment.
	series := sampleRate(r, names, stats, total/48)
	r.eng.RunUntil(r.p.QPSetupTime + total)
	// Sum the aggregate in tenant order: float addition is not associative,
	// so a map-ordered sum would make it nondeterministic across runs.
	agg := metrics.NewSeries("aggregate")
	for i, pt := range series[names[0]].Points {
		var sum float64
		for _, n := range names {
			sum += series[n].Points[i].V
		}
		agg.Add(pt.T, sum)
	}
	return &TenancyResult{Sched: sched, Total: total, Tenants: tenants, Series: series, Aggregate: agg}
}

// SharesBetween reports each tenant's mean rate within [lo, hi] (offsets
// from workload start).
func (r *TenancyResult) SharesBetween(lo, hi time.Duration) map[string]float64 {
	base := params.Default().QPSetupTime
	out := make(map[string]float64, len(r.Series))
	for name, s := range r.Series {
		out[name] = s.MeanBetween(base+lo, base+hi)
	}
	return out
}

// AggregateBetween reports the mean aggregate rate within [lo, hi].
func (r *TenancyResult) AggregateBetween(lo, hi time.Duration) float64 {
	base := params.Default().QPSetupTime
	return r.Aggregate.MeanBetween(base+lo, base+hi)
}

// fig15Tenants builds the paper's three-tenant schedule (weights 6:1:2;
// tenant 2 joins at 1/12 and leaves at 10/12 of the run; tenant 3 runs the
// middle quarter), scaled to total.
func fig15Tenants(total time.Duration) []TenantLoad {
	frac := func(num, den int) time.Duration {
		return total * time.Duration(num) / time.Duration(den)
	}
	return []TenantLoad{
		{Name: "tenant1", Weight: 6, Clients: 48},
		{Name: "tenant2", Weight: 1, Clients: 24, Start: frac(1, 12), Stop: frac(10, 12)},
		{Name: "tenant3", Weight: 2, Clients: 32, Start: frac(3, 8), Stop: frac(5, 8)},
	}
}

// Fig15Result pairs the FCFS and DWRR runs.
type Fig15Result struct {
	FCFS *TenancyResult
	DWRR *TenancyResult
	// AllActive is the window (offsets) where all three tenants compete.
	AllActiveLo, AllActiveHi time.Duration
}

// Fig15 runs the §4.2 fairness experiment.
func Fig15(o Opts) *Fig15Result {
	total := o.scale(1500*time.Millisecond, 8*time.Second)
	tenants := fig15Tenants(total)
	res := &Fig15Result{
		AllActiveLo: total * 2 / 5,
		AllActiveHi: total * 3 / 5,
	}
	scheds := []dne.SchedulerKind{dne.SchedFCFS, dne.SchedDWRR}
	runs := make([]*TenancyResult, len(scheds))
	o.forEach(len(scheds), func(i int) {
		runs[i] = runTenancy(o, scheds[i], tenants, total)
	})
	res.FCFS, res.DWRR = runs[0], runs[1]
	return res
}

// RunFig15 adapts Fig15 to the registry.
func RunFig15(o Opts) []*Table {
	res := Fig15(o)
	tables := make([]*Table, 0, 2)
	for _, run := range []*TenancyResult{res.FCFS, res.DWRR} {
		name := "FCFS (no multi-tenancy support)"
		if run.Sched == dne.SchedDWRR {
			name = "NADINO DWRR (weights 6:1:2)"
		}
		t := &Table{
			Title:   "Fig. 15 — per-tenant RPS over time, " + name,
			Columns: []string{"time", "tenant1 (w=6)", "tenant2 (w=1)", "tenant3 (w=2)", "aggregate"},
		}
		step := run.Total / 12
		base := params.Default().QPSetupTime
		for ts := step; ts <= run.Total; ts += step {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1fs", ts.Seconds()),
				fRPS(run.Series["tenant1"].At(base + ts)),
				fRPS(run.Series["tenant2"].At(base + ts)),
				fRPS(run.Series["tenant3"].At(base + ts)),
				fRPS(run.Aggregate.At(base + ts)),
			})
		}
		t.Rows = append(t.Rows, []string{
			"spark",
			run.Series["tenant1"].Sparkline(24),
			run.Series["tenant2"].Sparkline(24),
			run.Series["tenant3"].Sparkline(24),
			run.Aggregate.Sparkline(24),
		})
		tables = append(tables, t)
	}
	tables[1].Note = "with DWRR, competing backlogged tenants split the capped DNE precisely 6:1:2"
	return tables
}

// Fig17Result is the 6-tenant scalability run (appendix A).
type Fig17Result struct {
	Run *TenancyResult
	// Step is the join/leave interval.
	Step time.Duration
}

// Fig17 runs six equal-weight tenants joining and leaving in staggered
// windows: tenant i is active [i*step, (i+6)*step).
func Fig17(o Opts) *Fig17Result {
	step := o.scale(200*time.Millisecond, time.Second)
	total := 11 * step
	tenants := make([]TenantLoad, 6)
	for i := range tenants {
		tenants[i] = TenantLoad{
			Name:    fmt.Sprintf("tenant%d", i+1),
			Weight:  1,
			Clients: 24,
			Start:   time.Duration(i) * step,
			Stop:    time.Duration(i+6) * step,
		}
	}
	return &Fig17Result{Run: runTenancy(o, dne.SchedDWRR, tenants, total), Step: step}
}

// RunFig17 adapts Fig17 to the registry.
func RunFig17(o Opts) []*Table {
	res := Fig17(o)
	run := res.Run
	t := &Table{
		Title:   "Fig. 17 — 6 equal-weight tenants joining/leaving (DWRR)",
		Columns: []string{"time", "t1", "t2", "t3", "t4", "t5", "t6", "aggregate"},
		Note:    "fairness holds as tenants scale; the aggregate stays pinned at the DNE's capacity",
	}
	base := params.Default().QPSetupTime
	for ts := res.Step; ts <= run.Total; ts += res.Step {
		row := []string{fmt.Sprintf("%.1fs", ts.Seconds())}
		for i := 1; i <= 6; i++ {
			row = append(row, fRPS(run.Series[fmt.Sprintf("tenant%d", i)].At(base+ts)))
		}
		row = append(row, fRPS(run.Aggregate.At(base+ts)))
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}
