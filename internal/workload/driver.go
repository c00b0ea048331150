package workload

import (
	"time"

	"nadino/internal/ingress"
	"nadino/internal/sim"
)

// Submit issues one request for chain on behalf of client, with the
// per-request speculation overrides clone and hedge (0 = the system's
// policy). reply, when not nil, runs in engine context when the response
// reaches the client. core.Cluster.SubmitChainSpec is a Submit.
type Submit func(chain string, client, clone int, hedge time.Duration, reply func(ingress.Response))

// Driver offers load to a system from engine callbacks. A closed loop (Clients > 0) is the paper's wrk clients
// (§4.1.3, §4.3): each keeps one request outstanding and issues the next
// once the reply is back, after its think time. An open loop issues
// arrivals whether or not replies return: Think paces them, Trace draws
// them from a synthetic Poisson/diurnal/Zipf process, or Replay plays a
// recorded schedule with its per-arrival clone/hedge overrides. Every wait
// is one engine event: a think time or arrival gap is one After, no think
// time one Immediate, the Ready gate one readiness wake.
type Driver struct {
	// Chains are the targets of a closed loop (client i drives
	// Chains[i%len(Chains)]) and of Think-paced arrivals (arrival n drives
	// Chains[n%len(Chains)]); with none, those requests name chain "".
	Chains []string
	// Clients, when positive, runs a closed loop of that many clients.
	Clients int
	// Think, when set, is the wait before request n of client (n = 0 is its
	// first), counted from Start for n = 0, then from the client's previous
	// reply, or from the previous arrival of a Think-paced open loop (whose
	// arrivals are client 0's requests). Unset, a closed-loop client issues
	// one Immediate after Start and after each reply.
	Think func(client, n int) time.Duration
	// Requests caps each client's requests (an open loop's arrivals);
	// 0 = no cap.
	Requests int
	// Until, when positive, stops issuing: nothing goes out at or after it.
	Until time.Duration
	// Ready, when set, gates each client's first request (an open loop's
	// first arrival): it is handed the continuation to run once the system
	// is up, e.g. core.Cluster.OnReady.
	Ready func(run func())
	// Trace or Replay, when set, times an open loop's arrivals.
	Trace  *TraceGen
	Replay *Replay

	eng    *sim.Engine
	submit Submit
	stop   time.Duration
}

// client is one closed-loop client, or an open loop; its callbacks are
// bound once at Start.
type client struct {
	d       *Driver
	id      int
	n, next int // requests issued; the next Replay arrival
	gated   bool
	wakeFn  func()
	replyFn func(ingress.Response)
}

// Start arms the driver on eng; requests go out through submit, which is
// passed the closed-loop client's index, or an open-loop arrival's
// sequence number, as its client.
func (d *Driver) Start(eng *sim.Engine, submit Submit) {
	d.eng, d.submit, d.stop = eng, submit, 1<<63-1
	if d.Until > 0 {
		d.stop = d.Until
	}
	if d.Trace != nil {
		d.Trace.prepare()
	} else if d.Clients <= 0 && d.Think == nil && d.Replay == nil {
		panic("workload: a driver needs Clients, Think, Trace or Replay")
	}
	clients := make([]client, max(d.Clients, 1))
	for i := range clients {
		cl := &clients[i]
		cl.d, cl.id = d, i
		cl.wakeFn, cl.replyFn = cl.wake, cl.reply
		// A Trace or Replay loop times its first arrival from an event of
		// its own, queued behind this instant's events, so a trace's draws
		// keep their place in the engine's shared random stream.
		switch {
		case d.Replay != nil:
			eng.Immediate(cl.wakeFn)
		case d.Trace != nil:
			eng.Immediate(func() { cl.reply(ingress.Response{}) })
		default:
			eng.After(d.wait(cl), cl.wakeFn)
		}
	}
}

// Every is a Think that issues each client's first request at once and
// every later one gap after the previous reply (or arrival).
func Every(gap time.Duration) func(client, n int) time.Duration {
	return func(_, n int) time.Duration {
		if n == 0 {
			return 0
		}
		return gap
	}
}

// Stop makes the driver issue nothing from now on; requests in flight
// complete.
func (d *Driver) Stop() { d.stop = min(d.stop, d.eng.Now()) }

// wait is the wait before cl's next request.
func (d *Driver) wait(cl *client) time.Duration {
	switch {
	case d.Trace != nil:
		return d.Trace.gap(d.eng.Rand().ExpFloat64(), d.eng.Now())
	case d.Think != nil:
		return d.Think(cl.id, cl.n)
	}
	return 0
}

func (d *Driver) chain(i int) string {
	if len(d.Chains) == 0 {
		return ""
	}
	return d.Chains[i%len(d.Chains)]
}

// canIssue reports whether one more request may go out after n.
func (d *Driver) canIssue(n int) bool {
	return (d.Requests <= 0 || n < d.Requests) && d.eng.Now() < d.stop
}

// wake is a client's turn: a closed-loop request, an open-loop arrival, or
// every Replay arrival due by now.
func (cl *client) wake() {
	d := cl.d
	if d.Ready != nil && !cl.gated {
		cl.gated = true
		d.Ready(cl.wakeFn)
		return
	}
	if rp := d.Replay; rp != nil {
		for ; cl.next < len(rp.Arrivals) && rp.Arrivals[cl.next].At <= d.eng.Now(); cl.next++ {
			a := rp.Arrivals[cl.next]
			for i := 0; i < a.Count; i++ {
				if !d.canIssue(cl.n) {
					return
				}
				cl.n++
				d.submit(a.Chain, cl.n-1, a.Clone, a.Hedge, nil)
			}
		}
		if cl.next < len(rp.Arrivals) {
			d.eng.At(rp.Arrivals[cl.next].At, cl.wakeFn)
		}
		return
	}
	if !d.canIssue(cl.n) {
		return
	}
	cl.n++
	if d.Clients > 0 {
		d.submit(d.chain(cl.id), cl.id, 0, 0, cl.replyFn)
		return
	}
	chain := d.chain(cl.n - 1)
	if d.Trace != nil {
		chain = d.Trace.pick(d.eng.Rand().Float64())
	}
	d.submit(chain, cl.n-1, 0, 0, nil)
	cl.reply(ingress.Response{})
}

// reply schedules cl's next turn: after a closed-loop reply, or right
// after an open-loop arrival.
func (cl *client) reply(ingress.Response) { cl.d.eng.After(cl.d.wait(cl), cl.wakeFn) }
