package experiments

import (
	"fmt"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/metrics"
	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/workload"
)

// Fig14Series is one gateway's time-series run.
type Fig14Series struct {
	Design  string
	RPS     *metrics.Series
	CPU     *metrics.Series // cores' worth of CPU in use
	Workers *metrics.Series
	Served  uint64
	Dropped uint64
	// Disconnected counts client connections that gave up waiting — the
	// paper's K-Ingress overload symptom.
	Disconnected int
}

// Fig14Result holds the horizontal-scaling time series: a saturating client
// is added at a fixed interval (the paper adds one every 10 s).
type Fig14Result struct {
	Interval time.Duration
	Total    time.Duration
	Series   []Fig14Series
}

// runFig14 runs one gateway design under the ramp schedule.
func runFig14(o Opts, kind ingress.Kind, autoScale bool, workers, maxWorkers, clients int, every, total time.Duration) Fig14Series {
	quickRun := o.Quick
	p := params.Default()
	eng := sim.NewEngine(o.Seed)
	defer eng.Stop()
	backend := ingress.DefaultEchoBackend(eng, p, kind, 16)
	cfg := ingress.Config{
		Kind:           kind,
		InitialWorkers: workers,
		MaxWorkers:     maxWorkers,
		AutoScale:      autoScale,
		QueueCap:       512,
	}
	gw := ingress.New(eng, p, cfg, backend)
	gw.StartRecorder(total / 40)
	cp := workload.NewClientPool(eng, gw, 512, 512)
	// Each paper client pins a core and generates the highest load it can
	// over many connections: open-loop generation. Responses that take
	// longer than the timeout count as disconnections.
	cp.ConnsPerClient = 16
	cp.OpenLoopRate = 40000
	cp.Timeout = 100 * time.Millisecond
	if !quickRun {
		cp.OpenLoopRate = 30000
	}
	cp.RampUp(clients, every)
	eng.RunUntil(total)
	return Fig14Series{
		Design:       kind.String(),
		RPS:          gw.RPSSeries,
		CPU:          gw.CPUSeries,
		Workers:      gw.WorkersSeries,
		Served:       gw.Served(),
		Dropped:      gw.Dropped(),
		Disconnected: cp.Disconnected(),
	}
}

// Fig14 runs the three designs under the same ramp. Durations are
// compressed relative to the paper's minutes-long run; the dynamics
// (autoscaler steps, K-Ingress overload) are preserved.
func Fig14(o Opts) *Fig14Result {
	every := o.scale(300*time.Millisecond, time.Second)
	total := o.scale(3*time.Second, 16*time.Second)
	clients := 12
	if o.Quick {
		clients = 8
	}
	jobs := []struct {
		kind       ingress.Kind
		autoScale  bool
		workers    int
		maxWorkers int
	}{
		// NADINO: autoscaled busy-poll workers.
		{ingress.Nadino, true, 1, 8},
		// F-Ingress: the paper adapts the same autoscaler to it.
		{ingress.FIngress, true, 1, 8},
		// K-Ingress: interrupt-driven, spreads across all 8 cores from the
		// start, no explicit scaling.
		{ingress.KIngress, false, 8, 8},
	}
	res := &Fig14Result{Interval: every, Total: total, Series: make([]Fig14Series, len(jobs))}
	o.forEach(len(jobs), func(i int) {
		j := jobs[i]
		res.Series[i] = runFig14(o, j.kind, j.autoScale, j.workers, j.maxWorkers, clients, every, total)
	})
	return res
}

// Get returns the series for a design.
func (r *Fig14Result) Get(design string) (Fig14Series, bool) {
	for _, s := range r.Series {
		if s.Design == design {
			return s, true
		}
	}
	return Fig14Series{}, false
}

// RunFig14 adapts Fig14 to the registry.
func RunFig14(o Opts) []*Table {
	res := Fig14(o)
	t1 := &Table{
		Title:   fmt.Sprintf("Fig. 14 (1) — ingress CPU usage over time (+1 client every %v)", res.Interval),
		Columns: []string{"time", "NADINO cores", "F-Ingress cores", "K-Ingress cores"},
	}
	t2 := &Table{
		Title:   "Fig. 14 (2) — ingress RPS over time",
		Columns: []string{"time", "NADINO", "F-Ingress", "K-Ingress"},
		Note:    "K-Ingress saturates all cores and starts dropping clients; NADINO scales workers to match load",
	}
	nad, _ := res.Get("NADINO-Ingress")
	fi, _ := res.Get("F-Ingress")
	ki, _ := res.Get("K-Ingress")
	step := res.Total / 16
	for ts := step; ts <= res.Total; ts += step {
		t1.Rows = append(t1.Rows, []string{
			fmt.Sprintf("%.1fs", ts.Seconds()),
			fmt.Sprintf("%.1f", nad.CPU.At(ts)),
			fmt.Sprintf("%.1f", fi.CPU.At(ts)),
			fmt.Sprintf("%.1f", ki.CPU.At(ts)),
		})
		t2.Rows = append(t2.Rows, []string{
			fmt.Sprintf("%.1fs", ts.Seconds()),
			fRPS(nad.RPS.At(ts)),
			fRPS(fi.RPS.At(ts)),
			fRPS(ki.RPS.At(ts)),
		})
	}
	t2.Note += fmt.Sprintf("; disconnected conns — NADINO: %d, F: %d, K: %d",
		nad.Disconnected, fi.Disconnected, ki.Disconnected)
	t2.Rows = append(t2.Rows,
		[]string{"spark", nad.RPS.Sparkline(24), fi.RPS.Sparkline(24), ki.RPS.Sparkline(24)})
	return []*Table{t1, t2}
}
