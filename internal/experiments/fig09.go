package experiments

import (
	"fmt"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

// Fig09Row is one (channel, functions) measurement.
type Fig09Row struct {
	Channel   string
	Functions int
	RTT       time.Duration
	Rate      float64 // aggregate descriptor exchanges/sec
}

// Fig09Result compares host<->DPU descriptor channels (§3.5.4).
type Fig09Result struct {
	Rows []Fig09Row
}

// runComch drives n host functions issuing back-to-back 16 B descriptor
// echoes against a single-core DNE-like consumer on the DPU (§3.5.4's
// setup), returning mean RTT and aggregate rate.
func runComch(p *params.Params, seed int64, mode dpu.ChannelMode, n int, dur time.Duration) (time.Duration, float64) {
	eng := sim.NewEngine(seed)
	defer eng.Stop()
	work := sim.NewSignal(eng)
	dpuCore := sim.NewProcessor(eng, "dne-core", p.DPUNetSpeed)
	eps := make([]*dpu.Endpoint, n)
	for i := range eps {
		eps[i] = dpu.NewEndpoint(eng, p, mode, i, fmt.Sprintf("fn%d", i), "t", work.Pulse)
	}
	// Single-core engine: busy-poll all endpoints, echo descriptors.
	var poll func()
	ep, did := 0, false
	poll = func() {
		for ; ep < len(eps); ep++ {
			if d, ok := eps[ep].TryRecvFromHost(); ok {
				did = true
				dpuCore.Run(eps[ep].DNERecvCost(n)+500*time.Nanosecond, func() {
					eps[ep].SendToHost(d)
					poll()
				})
				return
			}
		}
		ep = 0
		if did {
			did = false
			poll()
			return
		}
		work.Notify(poll)
	}
	eng.Immediate(poll)
	l := newEchoLoad(eng, n)
	sends := make([]func(), n)
	for i, ep := range eps {
		// Comch-P pins one host core per function; the others share
		// event-driven cores (modeled per function for simplicity).
		core, c := sim.NewProcessor(eng, fmt.Sprintf("host%d", i), p.HostCoreSpeed), &l.clients[i]
		var await func()
		await = func() {
			if _, ok := ep.TryRecvOnHost(); !ok {
				ep.NotifyOnHost(await)
				return
			}
			if w := ep.HostWakeupCost(); w > 0 {
				core.Run(w, c.doneFn)
				return
			}
			c.done()
		}
		sent := func() {
			ep.SendToDNE(mempool.Descriptor{Tenant: "t"})
			await()
		}
		sends[i] = func() { core.Run(ep.SendCost(), sent) }
	}
	l.send = func(c *echoClient, _ mempool.Buffer) { sends[c.i]() }
	l.start(nil)
	rps, rtt := l.window(time.Millisecond, dur, nil)
	return rtt, rps
}

// Fig09Channels lists the compared channel variants.
var Fig09Channels = []dpu.ChannelMode{dpu.ChannelTCP, dpu.ComchE, dpu.ComchP}

// Fig09 runs the channel comparison, sharding the (channel, functions) grid
// across o.Parallel workers.
func Fig09(o Opts) *Fig09Result {
	counts := o.pick([]int{1, 6, 8}, []int{1, 2, 4, 6, 8, 10})
	dur := o.scale(10*time.Millisecond, 100*time.Millisecond)
	type job struct {
		mode dpu.ChannelMode
		n    int
	}
	var jobs []job
	for _, mode := range Fig09Channels {
		for _, n := range counts {
			jobs = append(jobs, job{mode: mode, n: n})
		}
	}
	rows := make([]Fig09Row, len(jobs))
	o.forEach(len(jobs), func(i int) {
		j := jobs[i]
		p := params.Default()
		rtt, rate := runComch(p, o.Seed, j.mode, j.n, dur)
		rows[i] = Fig09Row{Channel: j.mode.String(), Functions: j.n, RTT: rtt, Rate: rate}
	})
	return &Fig09Result{Rows: rows}
}

// Get returns the row for (channel, functions).
func (r *Fig09Result) Get(channel string, n int) (Fig09Row, bool) {
	for _, row := range r.Rows {
		if row.Channel == channel && row.Functions == n {
			return row, true
		}
	}
	return Fig09Row{}, false
}

// RunFig09 adapts Fig09 to the registry.
func RunFig09(o Opts) []*Table {
	res := Fig09(o)
	t := &Table{
		Title:   "Fig. 9 — DPU<->host descriptor channels (16B echoes, single-core DNE)",
		Columns: []string{"channel", "functions", "round trip", "rate"},
		Note:    "Comch-P is fastest but collapses beyond ~6 functions; Comch-E is stable (NADINO's choice)",
	}
	for _, row := range res.Rows {
		t.Rows = append(t.Rows, []string{row.Channel, fmt.Sprintf("%d", row.Functions), fLat(row.RTT), fRPS(row.Rate)})
	}
	return []*Table{t}
}
