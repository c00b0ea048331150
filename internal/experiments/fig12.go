package experiments

import (
	"fmt"
	"time"

	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// Fig12Variant names an RDMA-primitive data-plane design (Fig. 3).
type Fig12Variant string

// The compared designs (§4.1.2).
const (
	// TwoSided is NADINO's choice: receiver posts buffers, sender sends.
	TwoSided Fig12Variant = "two-sided"
	// OWRCBest is one-sided write into a dedicated RDMA-only pool with a
	// receiver-side copy that enjoys cache residency.
	OWRCBest Fig12Variant = "OWRC-Best"
	// OWRCWorst is the same with TLB-flushed, main-memory copies.
	OWRCWorst Fig12Variant = "OWRC-Worst"
	// OWDL is one-sided write into the shared pool guarded by distributed
	// locks (remote CAS) to avoid the receiver-oblivious data race.
	OWDL Fig12Variant = "OWDL"
)

// Fig12Variants lists the designs in display order.
var Fig12Variants = []Fig12Variant{TwoSided, OWRCBest, OWRCWorst, OWDL}

// Fig12Row is one (variant, payload) measurement.
type Fig12Row struct {
	Variant Fig12Variant
	Payload int
	RPS     float64
	MeanLat time.Duration
}

// Fig12Result holds the primitive-selection comparison.
type Fig12Result struct {
	Rows []Fig12Row
}

// runOneSidedEcho measures an echo pair built on one-sided writes, with
// the variant's coordination (receiver-side copies or distributed locks).
// One core per side, FaRM-style polling receivers.
func runOneSidedEcho(p *params.Params, seed int64, variant Fig12Variant, payload, clients int, dur time.Duration) (float64, time.Duration) {
	v := newVerbsPair(p, seed, "nodeA", "nodeB", "t", 16384, 1024, 0)
	eng := v.eng
	defer eng.Stop()

	// end is one node's side of the echo: its core, its QP to the peer and
	// the MR holding its landing slots (one per client), each guarded by a
	// lock word on its RNIC.
	type end struct {
		core  *sim.Processor
		rnic  *rdma.RNIC
		qp    *rdma.QP
		mr    *rdma.MR
		slots []rdma.RemoteBuf
		lock  string // lock word name, by slot
	}
	newEnd := func(core string, rnic *rdma.RNIC, qp *rdma.QP, pool *mempool.Pool, lock string) *end {
		e := &end{core: sim.NewProcessor(eng, core, p.HostCoreSpeed), rnic: rnic, qp: qp, mr: rnic.RegisterMR(pool), lock: lock}
		for i := 0; i < clients; i++ {
			b, _ := pool.Get("slots")
			e.slots = append(e.slots, rdma.RemoteBuf{MR: e.mr, Buf: b})
			rnic.SetWord(fmt.Sprintf(lock, i), 0)
		}
		return e
	}
	cli := newEnd("cliCore", v.ra, v.qa, v.poolA, "lock-a-%d")
	srv := newEnd("srvCore", v.rb, v.qb, v.poolB, "lock-b-%d")

	copyCost := func(n int) time.Duration {
		switch variant {
		case OWRCBest:
			return p.MemcpyBase + params.Bytes(p.MemcpyPerByteCached, n)
		case OWRCWorst:
			return p.MemcpyBase + params.Bytes(p.MemcpyPerByteCold, n)
		default:
			return 0 // OWDL writes into the shared pool directly
		}
	}

	// casAcquire spins remote CAS until the lock is taken, then runs then
	// after the successful swap's round trip. Each result is taken from one
	// same-instant event.
	var casAcquire func(qp *rdma.QP, core *sim.Processor, key string, then func())
	casAcquire = func(qp *rdma.QP, core *sim.Processor, key string, then func()) {
		core.Run(p.VerbsPostCost, func() {
			qp.PostCAS(key, 0, 1, func(res rdma.CASResult) {
				eng.Immediate(func() {
					if res.Swapped {
						then()
						return
					}
					eng.After(time.Microsecond, func() { casAcquire(qp, core, key, then) })
				})
			})
		})
	}

	// write posts a one-sided write of d from from's slot i into to's, on
	// from's core — under OWDL once the remote CAS on to's slot lock took
	// it — and then runs then (if set).
	write := func(from, to *end, i int, d mempool.Descriptor, then func()) {
		post := func() {
			from.core.Run(p.VerbsPostCost, func() {
				d.Buf = from.slots[i].Buf
				from.qp.PostWrite(d, to.slots[i])
				if then != nil {
					then()
				}
			})
		}
		if variant == OWDL {
			casAcquire(from.qp, from.core, fmt.Sprintf(to.lock, i), post)
			return
		}
		post()
	}

	ld := newEchoLoad(eng, clients)
	// serve is a FaRM-style polling receiver on e's core: pay the poll
	// cost, and if nothing landed sleep one poll interval; else take each
	// landed write in turn — pay the variant's copy and, under OWDL,
	// release the slot's lock so the writer's next CAS can succeed — and
	// hand it to handle, which resumes the loop through next; then poll
	// again.
	serve := func(e *end, handle func(i int, l rdma.Landed, next func())) {
		var poll, next func()
		var landed []rdma.Landed
		next = func() {
			if len(landed) == 0 {
				poll()
				return
			}
			l := landed[0]
			landed = landed[1:]
			i := ld.slot(l.Desc.Seq)
			e.core.Run(copyCost(l.Bytes), func() {
				if variant == OWDL {
					e.rnic.SetWord(fmt.Sprintf(e.lock, i), 0)
				}
				handle(i, l, next)
			})
		}
		poll = func() {
			e.core.Run(p.OneSidedPollCost, func() {
				if landed = e.mr.PollLanded(); len(landed) == 0 {
					eng.After(p.OneSidedPollInterval, poll)
					return
				}
				next()
			})
		}
		eng.Immediate(poll)
	}
	// The server echoes each arrival back; each reply resumes its client.
	serve(srv, func(i int, l rdma.Landed, next func()) {
		write(srv, cli, i, mempool.Descriptor{Tenant: "t", Len: int32(l.Bytes), Seq: l.Desc.Seq}, next)
	})
	serve(cli, func(_ int, l rdma.Landed, next func()) {
		ld.reply(l.Desc)
		next()
	})

	// Drain send-completion CQEs (bookkeeping only).
	discardCQ(eng, v.cqA)
	discardCQ(eng, v.cqB)

	ld.send = func(c *echoClient, _ mempool.Buffer) {
		write(cli, srv, c.i, mempool.Descriptor{Tenant: "t", Len: int32(payload), Seq: c.seq}, nil)
	}
	ld.start(nil)
	return ld.window(2*time.Millisecond, dur, nil)
}

// Fig12 runs the primitive comparison across payloads, sharding the
// (payload, variant) grid across o.Parallel workers.
func Fig12(o Opts) *Fig12Result {
	payloads := o.pick([]int{64, 4096}, []int{64, 512, 1024, 4096})
	dur := o.scale(20*time.Millisecond, 200*time.Millisecond)
	const clients = 4
	type job struct {
		variant Fig12Variant
		payload int
	}
	var jobs []job
	for _, pl := range payloads {
		for _, v := range Fig12Variants {
			jobs = append(jobs, job{variant: v, payload: pl})
		}
	}
	rows := make([]Fig12Row, len(jobs))
	o.forEach(len(jobs), func(i int) {
		j := jobs[i]
		p := params.Default()
		var rps float64
		var lat time.Duration
		if j.variant == TwoSided {
			rps, lat = runNativeEcho(p, o.Seed, p.HostCoreSpeed, j.payload, clients, dur, nil)
		} else {
			rps, lat = runOneSidedEcho(p, o.Seed, j.variant, j.payload, clients, dur)
		}
		rows[i] = Fig12Row{Variant: j.variant, Payload: j.payload, RPS: rps, MeanLat: lat}
	})
	return &Fig12Result{Rows: rows}
}

// Get returns the row for (variant, payload).
func (r *Fig12Result) Get(v Fig12Variant, payload int) (Fig12Row, bool) {
	for _, row := range r.Rows {
		if row.Variant == v && row.Payload == payload {
			return row, true
		}
	}
	return Fig12Row{}, false
}

// RunFig12 adapts Fig12 to the registry.
func RunFig12(o Opts) []*Table {
	res := Fig12(o)
	t := &Table{
		Title:   "Fig. 12 — RDMA primitive selection (echo pair, one core each)",
		Columns: []string{"variant", "payload", "RPS", "mean latency"},
		Note:    "two-sided avoids both the locks of OWDL and the copies of OWRC",
	}
	for _, row := range res.Rows {
		t.Rows = append(t.Rows, []string{string(row.Variant), fmt.Sprintf("%dB", row.Payload), fRPS(row.RPS), fLat(row.MeanLat)})
	}
	return []*Table{t}
}
