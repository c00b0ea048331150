package experiments

import (
	"fmt"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/workload"
)

// Fig13Row is one (design, clients) measurement.
type Fig13Row struct {
	Design  string
	Clients int
	RPS     float64
	MeanLat time.Duration
}

// Fig13Result compares ingress designs with one gateway core (§4.1.3).
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13Kinds lists the compared designs.
var Fig13Kinds = []ingress.Kind{ingress.Nadino, ingress.FIngress, ingress.KIngress}

// runIngress drives n closed-loop clients against a one-core gateway of the
// given kind and returns RPS and mean end-to-end latency.
func runIngress(o Opts, kind ingress.Kind, n int, dur time.Duration) (float64, time.Duration) {
	p := params.Default()
	eng := sim.NewEngine(o.Seed)
	defer eng.Stop()
	backend := ingress.DefaultEchoBackend(eng, p, kind, 8)
	gw := ingress.New(eng, p, ingress.Config{Kind: kind, InitialWorkers: 1, MaxWorkers: 1}, backend)
	cp := workload.NewClientPool(eng, gw, 512, 512)
	cp.AddClients(n)
	eng.RunUntil(5 * time.Millisecond) // warmup
	cp.Completed.MarkWindow(eng.Now())
	cp.Latency.Reset()
	start := eng.Now()
	eng.RunUntil(start + dur)
	return cp.Completed.WindowRate(eng.Now()), cp.Latency.Mean()
}

// Fig13 runs the client sweep for each design, sharding the (design,
// clients) grid across o.Parallel workers.
func Fig13(o Opts) *Fig13Result {
	clients := o.pick([]int{1, 32}, []int{1, 4, 8, 16, 32, 64})
	dur := o.scale(50*time.Millisecond, 300*time.Millisecond)
	type job struct {
		kind ingress.Kind
		n    int
	}
	var jobs []job
	for _, kind := range Fig13Kinds {
		for _, n := range clients {
			jobs = append(jobs, job{kind: kind, n: n})
		}
	}
	rows := make([]Fig13Row, len(jobs))
	o.forEach(len(jobs), func(i int) {
		j := jobs[i]
		rps, lat := runIngress(o, j.kind, j.n, dur)
		rows[i] = Fig13Row{Design: j.kind.String(), Clients: j.n, RPS: rps, MeanLat: lat}
	})
	return &Fig13Result{Rows: rows}
}

// Get returns the row for (design, clients).
func (r *Fig13Result) Get(design string, clients int) (Fig13Row, bool) {
	for _, row := range r.Rows {
		if row.Design == design && row.Clients == clients {
			return row, true
		}
	}
	return Fig13Row{}, false
}

// RunFig13 adapts Fig13 to the registry.
func RunFig13(o Opts) []*Table {
	res := Fig13(o)
	t := &Table{
		Title:   "Fig. 13 — cluster ingress designs (1 gateway core, echo backend)",
		Columns: []string{"design", "clients", "RPS", "mean latency"},
		Note:    "early HTTP/TCP->RDMA conversion removes all TCP processing from the cluster interior",
	}
	for _, row := range res.Rows {
		t.Rows = append(t.Rows, []string{row.Design, fmt.Sprintf("%d", row.Clients), fRPS(row.RPS), fLat(row.MeanLat)})
	}
	return []*Table{t}
}
