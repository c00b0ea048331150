package experiments

import (
	"fmt"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/core"
	"nadino/internal/speculate"
	"nadino/internal/telemetry"
	"nadino/internal/trace"
	"nadino/internal/workload"
)

// clonePoint is one speculation configuration: clone factor, function-core
// discipline, and whether hedged retries are armed on top of the clones.
type clonePoint struct {
	clone int
	ps    bool
	hedge bool
}

func (p clonePoint) String() string {
	s := fmt.Sprintf("c%d", p.clone)
	if p.ps {
		s += "+ps"
	} else {
		s += "+fcfs"
	}
	if p.hedge {
		s += "+hedge"
	}
	return s
}

// CloneRow is one (configuration, load) tail-latency measurement.
type CloneRow struct {
	Point   clonePoint
	Clients int
	Storm   bool

	RPS              float64
	P50, P99, P999   time.Duration
	Spec             speculate.Stats
	FnKills, TxDrops uint64
}

// ArmsPerReq reports how many arms (primary + clones + hedges) were fired
// per launched request; 1.0 means speculation never amplified anything.
func (r CloneRow) ArmsPerReq() float64 {
	if r.Spec.Launched == 0 {
		return 1
	}
	return float64(r.Spec.Arms) / float64(r.Spec.Launched)
}

// CloneResult holds the clone-sweep grid.
type CloneResult struct {
	Rows  []CloneRow
	Loads []int
}

// Get returns the row for (point, clients).
func (r *CloneResult) Get(pt clonePoint, clients int) (CloneRow, bool) {
	for _, row := range r.Rows {
		if row.Point == pt && row.Clients == clients {
			return row, true
		}
	}
	return CloneRow{}, false
}

// cloneClusterConfig is the 2-node cross-node chain the sweep drives
// (mirroring the core package's canonical test topology) with the sweep
// point's speculation policy and core discipline applied cluster-wide.
func cloneClusterConfig(seed int64, pt clonePoint) core.Config {
	pol := speculate.Policy{CloneN: pt.clone}
	if pt.hedge {
		pol.Hedge = true
		pol.HedgeMin = 30 * time.Microsecond
	}
	return core.Config{
		System: core.NadinoDNE,
		Nodes:  []string{"node1", "node2"},
		Functions: []core.FunctionSpec{
			{Name: "frontend", Node: "node1", Service: 20 * time.Microsecond},
			{Name: "backend", Node: "node2", Service: 15 * time.Microsecond},
			{Name: "sibling", Node: "node1", Service: 10 * time.Microsecond},
		},
		Chains: []core.ChainSpec{{
			Name: "mix", Entry: "frontend", ReqBytes: 512, RespBytes: 1024,
			Calls: []core.Call{
				{Callee: "backend", ReqBytes: 1024, RespBytes: 1024},
				{Callee: "sibling", ReqBytes: 256, RespBytes: 256},
			},
		}},
		Speculate: pol,
		PSCores:   pt.ps,
		Seed:      seed,
	}
}

// cloneStorm builds the fault schedule for the chaos variant: straggler
// injections (slow cores, a DMA stall, forced QP errors, an ingress restart)
// spread across the measurement window — exactly the fault mix speculative
// clones are supposed to cut the tail of.
func cloneStorm(in *chaos.Injector, warm, dur time.Duration) {
	step := dur / 6
	in.Install(chaos.Schedule{
		{At: warm + step, For: step / 2, Fault: chaos.SlowCores{Target: "cores@node2", Factor: 0.35}},
		{At: warm + 2*step, For: step / 3, Fault: chaos.DMAStall{Target: "dma@node2"}},
		{At: warm + 3*step, Fault: chaos.QPError{Target: "qp@node2", Count: 2}},
		{At: warm + 4*step, For: step / 2, Fault: chaos.SlowCores{Target: "cores@node1", Factor: 0.5}},
		{At: warm + 5*step, For: 200 * time.Microsecond, Fault: chaos.GatewayRestart{Target: "ingress"}},
	})
}

// runClonePoint drives n closed-loop clients through one sweep point and
// measures the steady-state window. Telemetry (when on) exports the cluster
// probe set including the spec.* family; tracing records spec.clone /
// spec.cancel stages alongside the standard pipeline stages.
func runClonePoint(o Opts, pt clonePoint, n int, storm bool, dur time.Duration) (CloneRow, *telemetry.Scraper, *trace.Tracer) {
	cfg := cloneClusterConfig(o.Seed, pt)
	c := core.NewCluster(cfg)
	defer c.Eng.Stop()

	var sc *telemetry.Scraper
	if o.Telemetry {
		reg := telemetry.NewRegistry()
		c.Instrument(reg)
		sc = reg.Scrape(c.Eng, 2*time.Millisecond)
	}

	warm := c.P.QPSetupTime + 10*time.Millisecond
	if storm {
		cloneStorm(c.NewChaos(o.Seed), warm, dur)
	}

	d := &workload.Driver{Chains: []string{"mix"}, Clients: n, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)

	c.Eng.RunUntil(warm)
	c.Completed.MarkWindow(c.Eng.Now())
	c.ChainLatency["mix"].Reset()
	var tracer *trace.Tracer
	if o.Trace {
		// Arm the tracer only for the measured window so the attribution
		// matches the reported steady-state tail.
		tracer = trace.New(nil)
		c.SetTracer(tracer)
	}
	c.Eng.RunUntil(warm + dur)

	hist := c.ChainLatency["mix"]
	row := CloneRow{
		Point:   pt,
		Clients: n,
		Storm:   storm,
		RPS:     c.Completed.WindowRate(c.Eng.Now()),
		P50:     hist.Quantile(0.50),
		P99:     hist.Quantile(0.99),
		P999:    hist.Quantile(0.999),
		FnKills: c.SpecFnKills(),
	}
	if sp := c.Gateway().Spec(); sp != nil {
		row.Spec = sp.Stats()
	}
	for _, node := range cfg.Nodes {
		row.TxDrops += c.Engine(node).SpecDrops()
	}
	return row, sc, tracer
}

// clonePoints is the sweep's configuration grid: clone factor x core
// discipline x hedging. Quick mode keeps the corners that exercise every
// distinct mechanism (cloning, PS cores, hedging) without the full cross.
func clonePoints(o Opts) []clonePoint {
	if o.Quick {
		return []clonePoint{
			{clone: 1}, {clone: 3},
			{clone: 1, hedge: true},
			{clone: 3, hedge: true},
			{clone: 3, ps: true},
			{clone: 3, ps: true, hedge: true},
		}
	}
	var pts []clonePoint
	for _, cl := range []int{1, 2, 3} {
		for _, ps := range []bool{false, true} {
			for _, hedge := range []bool{false, true} {
				pts = append(pts, clonePoint{clone: cl, ps: ps, hedge: hedge})
			}
		}
	}
	return pts
}

// cloneSweep runs points x loads, sharded across o.Parallel workers (each
// point builds its own cluster and engine; rows land in index-addressed
// slots so the merged output is bitwise-identical to a sequential run).
func cloneSweep(o Opts, storm bool) *CloneResult {
	points := clonePoints(o)
	loads := o.pick([]int{4, 12}, []int{8, 32})
	dur := o.scale(25*time.Millisecond, 200*time.Millisecond)

	type job struct {
		pt clonePoint
		n  int
	}
	var jobs []job
	for _, pt := range points {
		for _, n := range loads {
			jobs = append(jobs, job{pt: pt, n: n})
		}
	}
	rows := make([]CloneRow, len(jobs))
	scs := make([]*telemetry.Scraper, len(jobs))
	names := make([]string, len(jobs))
	trs := make([]*trace.Tracer, len(jobs))
	o.forEach(len(jobs), func(i int) {
		j := jobs[i]
		family := "clone-sweep"
		if storm {
			family = "clone-chaos"
		}
		names[i] = fmt.Sprintf("%s/%s@%d", family, j.pt, j.n)
		rows[i], scs[i], trs[i] = runClonePoint(o, j.pt, j.n, storm, dur)
	})
	sinkScrapers(o, names, scs)
	if o.Trace && o.TraceSink != nil {
		for i, tr := range trs {
			if tr != nil {
				o.TraceSink(names[i], tr)
			}
		}
	}
	return &CloneResult{Rows: rows, Loads: loads}
}

// CloneSweep measures P99/P999 vs load for clone factors x {FCFS,PS} x
// hedge on/off on a healthy cluster.
func CloneSweep(o Opts) *CloneResult { return cloneSweep(o, false) }

// CloneChaos runs the same grid under the straggler storm.
func CloneChaos(o Opts) *CloneResult { return cloneSweep(o, true) }

// cloneTable renders a CloneResult: one row per configuration, tail
// quantiles per load level, plus the speculation cost/benefit counters at
// the heaviest load.
func cloneTable(title string, res *CloneResult) *Table {
	heavy := res.Loads[len(res.Loads)-1]
	cols := []string{"clone", "cores", "hedge"}
	for _, n := range res.Loads {
		cols = append(cols, fmt.Sprintf("P99@%d", n), fmt.Sprintf("P999@%d", n))
	}
	cols = append(cols, fmt.Sprintf("RPS@%d", heavy), "arms/req", "kills", "cancels")
	t := &Table{Title: title, Columns: cols}

	seen := map[clonePoint]bool{}
	for _, row := range res.Rows {
		if seen[row.Point] {
			continue
		}
		seen[row.Point] = true
		disc := "FCFS"
		if row.Point.ps {
			disc = "PS"
		}
		hedge := "off"
		if row.Point.hedge {
			hedge = "on"
		}
		cells := []string{fmt.Sprintf("%d", row.Point.clone), disc, hedge}
		for _, n := range res.Loads {
			if r, ok := res.Get(row.Point, n); ok {
				cells = append(cells, fLat(r.P99), fLat(r.P999))
			} else {
				cells = append(cells, "-", "-")
			}
		}
		r, _ := res.Get(row.Point, heavy)
		cells = append(cells,
			fRPS(r.RPS),
			fmt.Sprintf("%.2f", r.ArmsPerReq()),
			fmt.Sprintf("%d", r.Spec.Kills+r.FnKills),
			fmt.Sprintf("%d", r.Spec.Cancels),
		)
		t.Rows = append(t.Rows, cells)
	}
	t.Note = "kills = losers killed mid-plane (TX gate / fn dequeue); cancels = losers suppressed at the ingress boundary"
	return t
}

// RunCloneSweep adapts CloneSweep to the registry.
func RunCloneSweep(o Opts) []*Table {
	return []*Table{cloneTable("Clone sweep — tail latency vs load (clone x discipline x hedge)", CloneSweep(o))}
}

// RunCloneChaos adapts CloneChaos to the registry.
func RunCloneChaos(o Opts) []*Table {
	t := cloneTable("Clone sweep under straggler storm (slow cores / DMA stall / QP errors / ingress restart)", CloneChaos(o))
	return []*Table{t}
}

// Speculation returns the clone-sweep experiment family.
func Speculation() []Experiment {
	return []Experiment{
		{ID: "clone-sweep", Title: "Clone sweep — speculative tail-cutting vs load", Run: RunCloneSweep},
		{ID: "clone-chaos", Title: "Clone sweep under chaos storm", Run: RunCloneChaos},
	}
}
