package experiments

import (
	"fmt"
	"time"

	"nadino/internal/fabric"
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
	eng := sim.NewEngine(seed)
	defer eng.Stop()
	net := fabric.New(eng, p)
	ra := rdma.NewRNIC(eng, p, "nodeA", net)
	rb := rdma.NewRNIC(eng, p, "nodeB", net)
	poolA := mempool.NewPool("rdma-a", 16384, 1024, p.HugepageSize)
	poolB := mempool.NewPool("rdma-b", 16384, 1024, p.HugepageSize)
	cqA, cqB := rdma.NewCQ(eng), rdma.NewCQ(eng)
	qa, qb := rdma.Connect(ra, rb, "t", nil, nil, cqA, cqB)
	mrA := ra.RegisterMR(poolA)
	mrB := rb.RegisterMR(poolB)
	coreA := sim.NewProcessor(eng, "cliCore", p.HostCoreSpeed)
	coreB := sim.NewProcessor(eng, "srvCore", p.HostCoreSpeed)

	// Static landing slots, one per client per direction.
	slotB := make([]rdma.RemoteBuf, clients) // client -> server
	slotA := make([]rdma.RemoteBuf, clients) // server -> client
	for i := 0; i < clients; i++ {
		ba, _ := poolA.Get("slots")
		bb, _ := poolB.Get("slots")
		slotA[i] = rdma.RemoteBuf{MR: mrA, Buf: ba}
		slotB[i] = rdma.RemoteBuf{MR: mrB, Buf: bb}
		rb.SetWord(fmt.Sprintf("lock-b-%d", i), 0)
		ra.SetWord(fmt.Sprintf("lock-a-%d", i), 0)
	}

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
	// after the successful swap's round trip.
	var casAcquire func(qp *rdma.QP, core *sim.Processor, key string, then func())
	casAcquire = func(qp *rdma.QP, core *sim.Processor, key string, then func()) {
		got := sim.NewQueue[rdma.CASResult](eng, 1)
		var await func()
		await = func() {
			res, ok := got.TryGet()
			if !ok {
				got.Notify(await)
				return
			}
			if res.Swapped {
				then()
				return
			}
			eng.After(time.Microsecond, func() { casAcquire(qp, core, key, then) })
		}
		core.Run(p.VerbsPostCost, func() {
			qp.PostCAS(key, 0, 1, func(res rdma.CASResult) { got.TryPut(res) })
			await()
		})
	}

	respQ := make([]*sim.Queue[struct{}], clients)
	for i := range respQ {
		respQ[i] = sim.NewQueue[struct{}](eng, 1)
	}

	// pollLoop is a FaRM-style polling receiver on core: pay the poll
	// cost, and if nothing landed sleep one poll interval; else handle each
	// landed write in turn (handle resumes the loop through its argument)
	// and poll again.
	pollLoop := func(core *sim.Processor, mr *rdma.MR, handle func(l rdma.Landed, next func())) {
		var poll, next func()
		var landed []rdma.Landed
		next = func() {
			if len(landed) == 0 {
				poll()
				return
			}
			l := landed[0]
			landed = landed[1:]
			handle(l, next)
		}
		poll = func() {
			core.Run(p.OneSidedPollCost, func() {
				if landed = mr.PollLanded(); len(landed) == 0 {
					eng.After(p.OneSidedPollInterval, poll)
					return
				}
				next()
			})
		}
		eng.Immediate(poll)
	}

	// Server: poll the landing region; for each arrival do the variant's
	// coordination and echo back with a one-sided write.
	pollLoop(coreB, mrB, func(l rdma.Landed, next func()) {
		i := int(l.Desc.Seq)
		reply := func() {
			coreB.Run(p.VerbsPostCost, func() {
				qb.PostWrite(mempool.Descriptor{Tenant: "t", Len: int32(l.Bytes), Seq: l.Desc.Seq, Buf: slotB[i].Buf}, slotA[i])
				next()
			})
		}
		coreB.Run(copyCost(l.Bytes), func() {
			if variant != OWDL {
				reply()
				return
			}
			// Consume, then release the lock locally so the client's next
			// CAS can succeed; acquire the client-side buffer lock before
			// the reply write.
			rb.SetWord(fmt.Sprintf("lock-b-%d", i), 0)
			casAcquire(qb, coreB, fmt.Sprintf("lock-a-%d", i), reply)
		})
	})
	// Client-side poller: detect replies.
	pollLoop(coreA, mrA, func(l rdma.Landed, next func()) {
		i := int(l.Desc.Seq)
		coreA.Run(copyCost(l.Bytes), func() {
			if variant == OWDL {
				ra.SetWord(fmt.Sprintf("lock-a-%d", i), 0)
			}
			respQ[i].TryPut(struct{}{})
			next()
		})
	})

	// Drain send-completion CQEs (bookkeeping only).
	discardCQ(eng, cqA)
	discardCQ(eng, cqB)

	var count uint64
	var rttSum time.Duration
	for i := 0; i < clients; i++ {
		i := i
		var loop, send, await func()
		var start time.Duration
		loop = func() {
			start = eng.Now()
			if variant == OWDL {
				casAcquire(qa, coreA, fmt.Sprintf("lock-b-%d", i), send)
				return
			}
			send()
		}
		send = func() {
			coreA.Run(p.VerbsPostCost, func() {
				qa.PostWrite(mempool.Descriptor{Tenant: "t", Len: int32(payload), Seq: uint64(i), Buf: slotA[i].Buf}, slotB[i])
				await()
			})
		}
		await = func() {
			if _, ok := respQ[i].TryGet(); !ok {
				respQ[i].Notify(await)
				return
			}
			count++
			rttSum += eng.Now() - start
			loop()
		}
		eng.Immediate(loop)
	}
	eng.RunUntil(2 * time.Millisecond)
	base, baseRTT := count, rttSum
	start := eng.Now()
	eng.RunUntil(start + dur)
	n := count - base
	if n == 0 {
		return 0, 0
	}
	return float64(n) / (eng.Now() - start).Seconds(), (rttSum - baseRTT) / time.Duration(n)
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
