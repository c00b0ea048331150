package experiments

import (
	"fmt"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/ipc"
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
	h2d, d2h := make([]*ipc.Chan, n), make([]*ipc.Chan, n)
	for i := range h2d {
		h2d[i], d2h[i] = dpu.NewComch(eng, p, mode, work.Pulse)
	}
	// Single-core engine: busy-poll all endpoints, echo descriptors.
	serveCost := mode.DNERecvCost(p, n) + 500*time.Nanosecond
	var poll func()
	ep, did := 0, false
	poll = func() {
		for ; ep < n; ep++ {
			if d, ok := h2d[ep].TryRecv(); ok {
				did = true
				dpuCore.Run(serveCost, func() {
					d2h[ep].Send(d)
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
	send, wake := mode.SendCost(p), mode.HostWakeupCost(p)
	for i := range sends {
		// Comch-P pins one host core per function; the others share
		// event-driven cores (modeled per function for simplicity).
		core, c := sim.NewProcessor(eng, fmt.Sprintf("host%d", i), p.HostCoreSpeed), &l.clients[i]
		in, out := d2h[i], h2d[i]
		var await func()
		await = func() {
			if _, ok := in.TryRecv(); !ok {
				in.Notify(await)
				return
			}
			if wake > 0 {
				core.Run(wake, c.doneFn)
				return
			}
			c.done()
		}
		sent := func() {
			out.Send(mempool.Descriptor{Tenant: "t"})
			await()
		}
		sends[i] = func() { core.Run(send, sent) }
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
