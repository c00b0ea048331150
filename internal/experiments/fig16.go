package experiments

import (
	"fmt"
	"time"

	"nadino/internal/boutique"
	"nadino/internal/core"
	"nadino/internal/workload"
)

// Fig16Row is one (system, chain, clients) boutique measurement.
type Fig16Row struct {
	System  core.System
	Chain   string
	Clients int
	RPS     float64
	MeanLat time.Duration
	Net     core.NetCPU
}

// Fig16Result holds the end-to-end boutique evaluation (§4.3): RPS and
// latency per chain per system (Fig. 16 (1)-(3) and Table 2) plus the
// CPU/DPU efficiency figures (Fig. 16 (4)-(6)).
type Fig16Result struct {
	Rows []Fig16Row
}

// runBoutique drives n closed-loop clients on one chain of one system.
func runBoutique(o Opts, sys core.System, chain string, n int, dur time.Duration) Fig16Row {
	c := core.NewCluster(boutique.ClusterConfig(sys, o.Seed))
	defer c.Eng.Stop()
	d := &workload.Driver{Chains: []string{chain}, Clients: n, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	warm := c.P.QPSetupTime + 10*time.Millisecond
	c.Eng.RunUntil(warm)
	c.Completed.MarkWindow(c.Eng.Now())
	c.ChainLatency[chain].Reset()
	c.Eng.RunUntil(warm + dur)
	elapsed := c.Eng.Now() - c.P.QPSetupTime
	return Fig16Row{
		System:  sys,
		Chain:   chain,
		Clients: n,
		RPS:     c.Completed.WindowRate(c.Eng.Now()),
		MeanLat: c.ChainLatency[chain].Mean(),
		Net:     c.NetCPUStats(elapsed),
	}
}

// Fig16 sweeps systems x chains x client counts, sharding the grid across
// o.Parallel workers (each point is its own cluster and engine).
func Fig16(o Opts) *Fig16Result {
	systems := core.Systems()
	chains := boutique.MeasuredChains()
	clients := []int{20, 60, 80}
	dur := o.scale(60*time.Millisecond, 250*time.Millisecond)
	if o.Quick {
		chains = chains[:1]
		clients = []int{8, 64}
	}
	type job struct {
		sys   core.System
		chain string
		n     int
	}
	var jobs []job
	for _, sys := range systems {
		for _, ch := range chains {
			for _, n := range clients {
				jobs = append(jobs, job{sys: sys, chain: ch, n: n})
			}
		}
	}
	rows := make([]Fig16Row, len(jobs))
	o.forEach(len(jobs), func(i int) {
		j := jobs[i]
		rows[i] = runBoutique(o, j.sys, j.chain, j.n, dur)
	})
	return &Fig16Result{Rows: rows}
}

// Get returns the row for (system, chain, clients).
func (r *Fig16Result) Get(sys core.System, chain string, clients int) (Fig16Row, bool) {
	for _, row := range r.Rows {
		if row.System == sys && row.Chain == chain && row.Clients == clients {
			return row, true
		}
	}
	return Fig16Row{}, false
}

// MaxClients reports the largest client count in the sweep.
func (r *Fig16Result) MaxClients() int {
	m := 0
	for _, row := range r.Rows {
		if row.Clients > m {
			m = row.Clients
		}
	}
	return m
}

// RunFig16 adapts Fig16 to the registry.
func RunFig16(o Opts) []*Table {
	res := Fig16(o)
	maxC := res.MaxClients()
	t1 := &Table{
		Title:   fmt.Sprintf("Fig. 16 (1)-(3) — Online Boutique RPS per chain (%d clients)", maxC),
		Columns: []string{"system", "chain", "RPS"},
	}
	t2 := &Table{
		Title:   fmt.Sprintf("Fig. 16 (4)-(6) — data-plane core usage (%d clients)", maxC),
		Columns: []string{"system", "chain", "pinned cores", "useful", "fn-core share", "kind"},
		Note:    "NADINO (DNE) pins DPU cores; every other engine burns host CPU",
	}
	for _, row := range res.Rows {
		if row.Clients != maxC {
			continue
		}
		t1.Rows = append(t1.Rows, []string{row.System.String(), row.Chain, fRPS(row.RPS)})
		kind := "CPU"
		if row.Net.OnDPU {
			kind = "DPU"
		}
		t2.Rows = append(t2.Rows, []string{
			row.System.String(), row.Chain,
			fmt.Sprintf("%.0f", row.Net.PinnedCores),
			fmt.Sprintf("%.2f", row.Net.PinnedUseful),
			fmt.Sprintf("%.2f", row.Net.FnCores),
			kind,
		})
	}
	return []*Table{t1, t2}
}

// RunTable2 formats the latency table from the same sweep.
func RunTable2(o Opts) []*Table {
	res := Fig16(o)
	clients := map[int]bool{}
	for _, row := range res.Rows {
		clients[row.Clients] = true
	}
	var cols []string
	cols = append(cols, "system", "chain")
	var order []int
	for _, n := range []int{8, 20, 32, 60, 80} {
		if clients[n] {
			order = append(order, n)
			cols = append(cols, fmt.Sprintf("%d clients", n))
		}
	}
	t := &Table{
		Title:   "Table 2 — average latency of boutique chains",
		Columns: cols,
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		key := row.System.String() + "/" + row.Chain
		if seen[key] {
			continue
		}
		seen[key] = true
		cells := []string{row.System.String(), row.Chain}
		for _, n := range order {
			if r, ok := res.Get(row.System, row.Chain, n); ok {
				cells = append(cells, fLat(r.MeanLat))
			} else {
				cells = append(cells, "-")
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	return []*Table{t}
}
