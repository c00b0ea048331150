package experiments

import (
	"fmt"
	"time"

	"nadino/internal/core"
	"nadino/internal/dne"
	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
	"nadino/internal/workload"
)

// This file holds ablations of NADINO's individual design choices — the
// knobs DESIGN.md calls out. Each isolates one mechanism and shows what it
// buys, beyond the paper's headline figures.

// ---------------------------------------------------------------------
// abl-connpool: RC connection pooling (§3.3) vs per-request QP setup.
// ---------------------------------------------------------------------

// AblConnPoolResult compares pooled connections against paying the RC
// handshake per request.
type AblConnPoolResult struct {
	PooledLat  time.Duration
	PerReqLat  time.Duration
	SpeedupLat float64
}

// ablConnPoolPerReq measures the no-pooling variant: every echo first
// performs the RC handshake, as a design without connection pooling would
// for short-lived functions.
func ablConnPoolPerReq(o Opts, p *params.Params) time.Duration {
	const n = 10
	eng := sim.NewEngine(o.Seed)
	defer eng.Stop()
	net := fabric.New(eng, p)
	ra := rdma.NewRNIC(eng, p, "a", net)
	rb := rdma.NewRNIC(eng, p, "b", net)
	poolA := mempool.NewPool("t", 8192, 256, p.HugepageSize)
	poolB := mempool.NewPool("t", 8192, 256, p.HugepageSize)
	var sum time.Duration
	var start time.Duration
	var echo func(i int)
	echo = func(i int) {
		if i == n {
			return
		}
		start = eng.Now()
		eng.After(p.QPSetupTime, func() { // the handshake, per request
			srqB := rdma.NewSRQ("t")
			cqA, cqB := rdma.NewCQ(eng), rdma.NewCQ(eng)
			qa, _ := rdma.Connect(ra, rb, "t", nil, srqB, cqA, cqB)
			rbuf, _ := poolB.Get("rq")
			srqB.PostRecv(mempool.Descriptor{Tenant: "t", Buf: rbuf})
			src, _ := poolA.Get("cli")
			qa.PostSend(mempool.Descriptor{Tenant: "t", Buf: src, Len: 1024})
			awaitCQ(cqB, func() {
				e := cqB.Poll(1)[0]
				// Tear down: recycle both buffers.
				if err := poolB.Transfer(e.Desc.Buf, "rq", "srv"); err != nil {
					panic(err)
				}
				_ = poolB.Put(e.Desc.Buf, "srv")
				awaitCQ(cqA, func() {
					for _, c := range cqA.Poll(0) {
						_ = poolA.Put(c.Desc.Buf, "cli")
					}
					sum += eng.Now() - start
					echo(i + 1)
				})
			})
		})
	}
	eng.Immediate(func() { echo(0) })
	eng.RunUntil(10 * time.Second)
	return sum / n
}

// AblConnPool measures both variants over sequential 1KB echoes.
func AblConnPool(o Opts) *AblConnPoolResult {
	lats := make([]time.Duration, 2)
	o.forEach(2, func(i int) {
		p := params.Default()
		switch i {
		case 0:
			// Pooled: the standard rig (connections established once at
			// startup).
			_, lats[0] = runDNEEcho(p, o.Seed, dne.OffPath, 1024, 1, o.scale(5*time.Millisecond, 20*time.Millisecond), nil)
		case 1:
			lats[1] = ablConnPoolPerReq(o, p)
		}
	})
	res := &AblConnPoolResult{PooledLat: lats[0], PerReqLat: lats[1]}
	res.SpeedupLat = float64(res.PerReqLat) / float64(res.PooledLat)
	return res
}

// RunAblConnPool adapts AblConnPool to the registry.
func RunAblConnPool(o Opts) []*Table {
	res := AblConnPool(o)
	return []*Table{{
		Title:   "Ablation — RC connection pooling (§3.3)",
		Columns: []string{"variant", "per-request latency"},
		Rows: [][]string{
			{"pooled connections (NADINO)", fLat(res.PooledLat)},
			{"QP handshake per request", fLat(res.PerReqLat)},
			{"pooling speedup", fRatio(res.SpeedupLat)},
		},
		Note: "the tens-of-ms RC handshake dwarfs the transfer; pooling amortizes it away",
	}}
}

// ---------------------------------------------------------------------
// abl-isolation: shadow-QP caps vs a rogue tenant hoarding active QPs
// (the §2.1 / §3.7 cache-exhaustion attack that SR-IOV VFs cannot stop).
// ---------------------------------------------------------------------

// AblIsolationResult compares a victim's echo latency with and without a
// rogue tenant thrashing the RNIC's QP cache.
type AblIsolationResult struct {
	BaselineLat time.Duration // no rogue at all
	ManagedLat  time.Duration // rogue present, DNE-style active-QP cap
	RogueLat    time.Duration // rogue with direct QP access (VF-style)
}

// runVictimEcho measures the victim echo with a rogue holding rogueQPs
// QPs; if capActive, only a handful stay active (DNE shadow management),
// else the rogue keeps them all hot (direct access).
func runVictimEcho(o Opts, p *params.Params, rogueQPs int, capActive bool) time.Duration {
	eng := sim.NewEngine(o.Seed)
	defer eng.Stop()
	net := fabric.New(eng, p)
	ra := rdma.NewRNIC(eng, p, "a", net)
	rb := rdma.NewRNIC(eng, p, "b", net)
	poolA := mempool.NewPool("victim", 8192, 512, p.HugepageSize)
	poolB := mempool.NewPool("victim", 8192, 512, p.HugepageSize)
	srqA, srqB := rdma.NewSRQ("victim"), rdma.NewSRQ("victim")
	cqA, cqB := rdma.NewCQ(eng), rdma.NewCQ(eng)
	qa, qb := rdma.Connect(ra, rb, "victim", srqA, srqB, cqA, cqB)

	// Rogue tenant: rogueQPs RC connections plus a one-sided target slot.
	roguePoolB := mempool.NewPool("rogue", 4096, 64, p.HugepageSize)
	rogueMR := rb.RegisterMR(roguePoolB)
	slot, _ := roguePoolB.Get("rogue")
	rogueCQ := rdma.NewCQ(eng)
	var rogue []*rdma.QP
	for i := 0; i < rogueQPs; i++ {
		q, _ := rdma.Connect(ra, rb, "rogue", nil, nil, rogueCQ, rdma.NewCQ(eng))
		rogue = append(rogue, q)
	}
	discardCQ(eng, rogueCQ)
	active := rogue
	if capActive && len(rogue) > 2 {
		// DNE-managed: all but two QPs are shadows and carry no traffic.
		active = rogue[:2]
	}
	if len(active) > 0 {
		i := 0
		var blast func()
		blast = func() {
			q := active[i%len(active)]
			q.PostWrite(mempool.Descriptor{Tenant: "rogue", Len: 64, Buf: slot}, rdma.RemoteBuf{MR: rogueMR, Buf: slot})
			i++
			eng.After(2*time.Microsecond, blast)
		}
		eng.Immediate(blast)
	}

	// Victim: sequential 1KB echoes, both ends reposting receive buffers.
	post := func(pool *mempool.Pool, srq *rdma.SRQ, n int) {
		for i := 0; i < n; i++ {
			b, err := pool.Get("rq")
			if err != nil {
				return
			}
			srq.PostRecv(mempool.Descriptor{Tenant: "victim", Buf: b})
		}
	}
	post(poolA, srqA, 64)
	post(poolB, srqB, 64)
	var serve func()
	serve = func() {
		awaitCQ(cqB, func() {
			for _, e := range cqB.Poll(0) {
				switch e.Op {
				case rdma.OpRecv:
					if err := poolB.Transfer(e.Desc.Buf, "rq", "srv"); err != nil {
						panic(err)
					}
					qb.PostSend(mempool.Descriptor{Tenant: "victim", Buf: e.Desc.Buf, Len: int32(e.Bytes)})
				case rdma.OpSend:
					// Echo delivered: recycle and repost a receive buffer.
					if err := poolB.Put(e.Desc.Buf, "srv"); err != nil {
						panic(err)
					}
					post(poolB, srqB, 1)
				}
			}
			serve()
		})
	}
	eng.Immediate(serve)
	var count uint64
	var rttSum time.Duration
	var issue, await func()
	var start time.Duration
	issue = func() {
		src, err := poolA.Get("cli")
		if err != nil {
			eng.After(10*time.Microsecond, issue)
			return
		}
		start = eng.Now()
		qa.PostSend(mempool.Descriptor{Tenant: "victim", Buf: src, Len: 1024})
		await()
	}
	await = func() {
		awaitCQ(cqA, func() {
			gotReply := false
			for _, e := range cqA.Poll(0) {
				switch e.Op {
				case rdma.OpRecv:
					if err := poolA.Transfer(e.Desc.Buf, "rq", "cli"); err != nil {
						panic(err)
					}
					_ = poolA.Put(e.Desc.Buf, "cli")
					post(poolA, srqA, 1)
					gotReply = true
				case rdma.OpSend:
					_ = poolA.Put(e.Desc.Buf, "cli")
				}
			}
			if !gotReply {
				await()
				return
			}
			count++
			rttSum += eng.Now() - start
			issue()
		})
	}
	eng.Immediate(issue)
	eng.RunUntil(o.scale(5*time.Millisecond, 20*time.Millisecond))
	if count == 0 {
		return 0
	}
	return rttSum / time.Duration(count)
}

// AblIsolation runs the rogue-tenant comparison. Each scenario builds its
// own params so the three engines can run on separate workers.
func AblIsolation(o Opts) *AblIsolationResult {
	scenarios := []struct {
		rogueQPs  int
		capActive bool
	}{{0, false}, {512, true}, {512, false}}
	lats := make([]time.Duration, len(scenarios))
	o.forEach(len(scenarios), func(i int) {
		p := params.Default()
		p.NICCacheActiveQPs = 64 // a small ICM cache makes the attack visible
		lats[i] = runVictimEcho(o, p, scenarios[i].rogueQPs, scenarios[i].capActive)
	})
	return &AblIsolationResult{BaselineLat: lats[0], ManagedLat: lats[1], RogueLat: lats[2]}
}

// RunAblIsolation adapts AblIsolation to the registry.
func RunAblIsolation(o Opts) []*Table {
	res := AblIsolation(o)
	return []*Table{{
		Title:   "Ablation — active-QP management vs a rogue tenant (§2.1, §3.7)",
		Columns: []string{"scenario", "victim echo RTT"},
		Rows: [][]string{
			{"no rogue tenant", fLat(res.BaselineLat)},
			{"rogue w/ 512 QPs, DNE shadow cap", fLat(res.ManagedLat)},
			{"rogue w/ 512 QPs, direct access (VF-style)", fLat(res.RogueLat)},
		},
		Note: "SR-IOV VFs still share the RNIC's caches; only the DNE's cap contains the thrash",
	}}
}

// ---------------------------------------------------------------------
// abl-replenish: RQ replenishment period (§3.5.2) vs RNR stalls.
// ---------------------------------------------------------------------

// AblReplenishRow is one replenish-period measurement.
type AblReplenishRow struct {
	Period  time.Duration
	RPS     float64
	MeanLat time.Duration
	RNR     uint64
}

// AblReplenish sweeps the core thread's replenish period under concurrent
// load with a small pre-posted ring.
func AblReplenish(o Opts) []AblReplenishRow {
	periods := []time.Duration{10 * time.Microsecond, 50 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond}
	rows := make([]AblReplenishRow, len(periods))
	o.forEach(len(periods), func(i int) {
		period := periods[i]
		p := params.Default()
		r := newDNERig(p, o.Seed, dne.OffPath, dne.SchedDWRR, []tenantSpec{{name: "t", weight: 1}},
			func(cfg *dne.Config) {
				cfg.ReplenishEvery = period
				cfg.InitialRQ = 48
			})
		cliPort := r.ea.AttachFunction("cli-t", "t")
		srvPort := r.eb.AttachFunction("srv-t", "t")
		r.startEchoServer("t", srvPort)
		stats := r.startEchoClients("t", cliPort, 32, 1024, nil)
		rps, lat := measureEcho(r, stats, o.scale(10*time.Millisecond, 50*time.Millisecond))
		rows[i] = AblReplenishRow{
			Period:  period,
			RPS:     rps,
			MeanLat: lat,
			RNR:     r.eb.SRQ("t").RNREvents(),
		}
		r.eng.Stop()
	})
	return rows
}

// RunAblReplenish adapts AblReplenish to the registry.
func RunAblReplenish(o Opts) []*Table {
	t := &Table{
		Title:   "Ablation — RQ replenishment period (§3.5.2), 48-buffer ring, 32 in flight",
		Columns: []string{"replenish every", "RPS", "mean latency", "RNR stalls"},
		Note:    "a lazy core thread starves the SRQ: receivers go not-ready and RC retries eat the gains",
	}
	for _, row := range AblReplenish(o) {
		t.Rows = append(t.Rows, []string{
			row.Period.String(), fRPS(row.RPS), fLat(row.MeanLat), fmt.Sprintf("%d", row.RNR),
		})
	}
	return []*Table{t}
}

// ---------------------------------------------------------------------
// abl-quantum: DWRR quantum size vs fairness granularity.
// ---------------------------------------------------------------------

// AblQuantumRow is one quantum measurement.
type AblQuantumRow struct {
	Quantum int
	// MaxShareErr is the largest relative deviation from the entitled
	// 6:1:2 shares during full contention.
	MaxShareErr float64
	Aggregate   float64
}

// AblQuantum sweeps the DWRR byte quantum.
func AblQuantum(o Opts) []AblQuantumRow {
	quanta := []int{256, 2048, 16384, 262144}
	total := o.scale(400*time.Millisecond, 3*time.Second)
	rows := make([]AblQuantumRow, len(quanta))
	o.forEach(len(quanta), func(qi int) {
		q := quanta[qi]
		p := params.Default()
		p.DNEExtraPerMsg = 4600 * time.Nanosecond
		specs := []tenantSpec{{"t1", 6}, {"t2", 1}, {"t3", 2}}
		r := newDNERig(p, o.Seed, dne.OffPath, dne.SchedDWRR, specs,
			func(cfg *dne.Config) { cfg.QuantumUnit = q })
		stats := map[string]*echoClientStats{}
		for i, ts := range specs {
			cliPort := r.ea.AttachFunction("cli-"+ts.name, ts.name)
			srvPort := r.eb.AttachFunction("srv-"+ts.name, ts.name)
			r.startEchoServer(ts.name, srvPort)
			stats[ts.name] = r.startEchoClients(ts.name, cliPort, []int{48, 24, 32}[i], 1024, nil)
		}
		r.eng.RunUntil(p.QPSetupTime + total/4) // warmup
		base := map[string]uint64{}
		for name, s := range stats {
			base[name] = s.count
		}
		start := r.eng.Now()
		r.eng.RunUntil(start + total/2)
		el := (r.eng.Now() - start).Seconds()
		rates := map[string]float64{}
		var agg float64
		// Sum in spec order: float addition over a map walk would be
		// nondeterministic.
		for _, ts := range specs {
			s := stats[ts.name]
			rates[ts.name] = float64(s.count-base[ts.name]) / el
			agg += rates[ts.name]
		}
		want := map[string]float64{"t1": 6.0 / 9, "t2": 1.0 / 9, "t3": 2.0 / 9}
		maxErr := 0.0
		for name, w := range want {
			err := rates[name]/agg/w - 1
			if err < 0 {
				err = -err
			}
			if err > maxErr {
				maxErr = err
			}
		}
		rows[qi] = AblQuantumRow{Quantum: q, MaxShareErr: maxErr, Aggregate: agg}
		r.eng.Stop()
	})
	return rows
}

// RunAblQuantum adapts AblQuantum to the registry.
func RunAblQuantum(o Opts) []*Table {
	t := &Table{
		Title:   "Ablation — DWRR quantum size, 3 tenants weighted 6:1:2",
		Columns: []string{"quantum", "max share error", "aggregate RPS"},
		Note:    "moderate quanta hold exact fairness; oversized quanta (here 256KB x weight) let one tenant monopolize entire measurement windows",
	}
	for _, row := range AblQuantum(o) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dB", row.Quantum),
			fmt.Sprintf("%.1f%%", 100*row.MaxShareErr),
			fRPS(row.Aggregate),
		})
	}
	return []*Table{t}
}

// ---------------------------------------------------------------------
// abl-hugepage: hugepage pools vs 4K pages (MTT pressure, §3.4).
// ---------------------------------------------------------------------

// AblHugepageResult compares echo performance for the two page sizes.
type AblHugepageResult struct {
	HugeRPS, SmallRPS float64
	HugeLat, SmallLat time.Duration
	HugePages         int
	SmallPages        int
}

// AblHugepage runs the comparison with 64 MB pools.
func AblHugepage(o Opts) *AblHugepageResult {
	run := func(pageSize int) (float64, time.Duration, int) {
		p := params.Default()
		p.HugepageSize = pageSize
		rps, lat := runDNEEcho(p, o.Seed, dne.OffPath, 1024, 4, o.scale(10*time.Millisecond, 50*time.Millisecond), nil)
		pages := mempool.NewPool("probe", 16384, 8192, pageSize).Hugepages()
		return rps, lat, pages
	}
	res := &AblHugepageResult{}
	o.forEach(2, func(i int) {
		if i == 0 {
			res.HugeRPS, res.HugeLat, res.HugePages = run(2 << 20)
		} else {
			res.SmallRPS, res.SmallLat, res.SmallPages = run(4 << 10)
		}
	})
	return res
}

// RunAblHugepage adapts AblHugepage to the registry.
func RunAblHugepage(o Opts) []*Table {
	res := AblHugepage(o)
	return []*Table{{
		Title:   "Ablation — hugepage vs 4K-page pools (MTT pressure, §3.4)",
		Columns: []string{"page size", "MTT entries/pool", "RPS", "mean latency"},
		Rows: [][]string{
			{"2MB hugepages", fmt.Sprintf("%d", res.HugePages), fRPS(res.HugeRPS), fLat(res.HugeLat)},
			{"4KB pages", fmt.Sprintf("%d", res.SmallPages), fRPS(res.SmallRPS), fLat(res.SmallLat)},
		},
		Note: "4K pages overflow the RNIC's translation cache; every WR pays the miss",
	}}
}

// ---------------------------------------------------------------------
// abl-keepwarm: keep-warm policy vs cold starts (§3.7).
// ---------------------------------------------------------------------

// AblKeepWarmRow is one keep-warm measurement.
type AblKeepWarmRow struct {
	KeepWarm   time.Duration
	ColdStarts uint64
	MeanLat    time.Duration
}

// AblKeepWarm drives sparse traffic at a cold-startable function under
// different keep-warm windows.
func AblKeepWarm(o Opts) []AblKeepWarmRow {
	windows := []time.Duration{0, 5 * time.Millisecond, 50 * time.Millisecond}
	rows := make([]AblKeepWarmRow, len(windows))
	o.forEach(len(windows), func(wi int) {
		w := windows[wi]
		cfg := core.Config{
			System: core.NadinoDNE,
			Nodes:  []string{"node1", "node2"},
			Functions: []core.FunctionSpec{{
				Name: "fn", Node: "node1", Service: 20 * time.Microsecond,
				Workers: 2, ColdStart: 5 * time.Millisecond, KeepWarm: w,
			}},
			Chains: []core.ChainSpec{{Name: "hit", Entry: "fn", ReqBytes: 128, RespBytes: 128}},
			Seed:   o.Seed,
		}
		c := core.NewCluster(cfg)
		d := &workload.Driver{
			Chains:   []string{"hit"},
			Clients:  1,
			Think:    workload.Every(10 * time.Millisecond),
			Requests: 20,
			Ready:    c.OnReady,
		}
		d.Start(c.Eng, c.SubmitChainSpec)
		c.Eng.RunUntil(2 * time.Second)
		rows[wi] = AblKeepWarmRow{
			KeepWarm:   w,
			ColdStarts: c.ColdStarts(),
			MeanLat:    c.ChainLatency["hit"].Mean(),
		}
		c.Eng.Stop()
	})
	return rows
}

// RunAblKeepWarm adapts AblKeepWarm to the registry.
func RunAblKeepWarm(o Opts) []*Table {
	t := &Table{
		Title:   "Ablation — keep-warm policy vs cold starts (§3.7), 10ms request gaps",
		Columns: []string{"keep-warm window", "cold starts", "mean latency"},
		Note:    "NADINO adopts SPRIGHT's keep-warm; the data plane cannot hide a 5ms container boot",
	}
	for _, row := range AblKeepWarm(o) {
		kw := row.KeepWarm.String()
		if row.KeepWarm == 0 {
			kw = "none (always cold)"
		}
		t.Rows = append(t.Rows, []string{kw, fmt.Sprintf("%d", row.ColdStarts), fLat(row.MeanLat)})
	}
	return []*Table{t}
}

// ---------------------------------------------------------------------
// abl-fanout: sequential calls vs DAG-style parallel fan-out (§3.5).
// ---------------------------------------------------------------------

// AblFanoutResult compares the two call styles on the same chain.
type AblFanoutResult struct {
	SeqLat, ParLat time.Duration
	Speedup        float64
}

// AblFanout measures a 3-way fan-out chain both ways.
func AblFanout(o Opts) *AblFanoutResult {
	run := func(async bool) time.Duration {
		call := func(callee string) core.Call {
			return core.Call{Callee: callee, ReqBytes: 512, RespBytes: 512, Async: async}
		}
		cfg := core.Config{
			System: core.NadinoDNE,
			Nodes:  []string{"node1", "node2"},
			Functions: []core.FunctionSpec{
				{Name: "entry", Node: "node1", Service: 10 * time.Microsecond},
				{Name: "s1", Node: "node2", Service: 100 * time.Microsecond, Workers: 4},
				{Name: "s2", Node: "node2", Service: 100 * time.Microsecond, Workers: 4},
				{Name: "s3", Node: "node2", Service: 100 * time.Microsecond, Workers: 4},
			},
			Chains: []core.ChainSpec{{
				Name: "fan", Entry: "entry", ReqBytes: 256, RespBytes: 256,
				Calls: []core.Call{call("s1"), call("s2"), call("s3")},
			}},
			Seed: o.Seed,
		}
		c := core.NewCluster(cfg)
		defer c.Eng.Stop()
		d := &workload.Driver{Chains: []string{"fan"}, Clients: 1, Requests: 100, Ready: c.OnReady}
		d.Start(c.Eng, c.SubmitChainSpec)
		c.Eng.RunUntil(2 * time.Second)
		return c.ChainLatency["fan"].Mean()
	}
	lats := make([]time.Duration, 2)
	o.forEach(2, func(i int) {
		lats[i] = run(i == 1) // 0 = sequential, 1 = async fan-out
	})
	res := &AblFanoutResult{SeqLat: lats[0], ParLat: lats[1]}
	res.Speedup = float64(res.SeqLat) / float64(res.ParLat)
	return res
}

// RunAblFanout adapts AblFanout to the registry.
func RunAblFanout(o Opts) []*Table {
	res := AblFanout(o)
	return []*Table{{
		Title:   "Ablation — sequential calls vs DAG fan-out (§3.5), 3x100us backends",
		Columns: []string{"call style", "chain latency"},
		Rows: [][]string{
			{"sequential", fLat(res.SeqLat)},
			{"parallel fan-out", fLat(res.ParLat)},
			{"speedup", fRatio(res.Speedup)},
		},
		Note: "the I/O library's DAG layer overlaps independent backends' service times",
	}}
}

// ---------------------------------------------------------------------
// abl-crosstenant: same-tenant zero copy vs cross-tenant sidecar copies.
// ---------------------------------------------------------------------

// AblCrossTenantResult compares latency across the tenant boundary.
type AblCrossTenantResult struct {
	SameLat, CrossLat time.Duration
	Copies            uint64
}

// AblCrossTenant builds a two-tenant cluster and measures twin chains.
func AblCrossTenant(o Opts) *AblCrossTenantResult {
	mk := func(crossTenant bool) (time.Duration, uint64) {
		backTenant := "tenant_a"
		if crossTenant {
			backTenant = "tenant_b"
		}
		cfg := core.Config{
			System:  core.NadinoDNE,
			Tenant:  "tenant_a",
			Tenants: []core.TenantSpec{{Name: "tenant_b", Weight: 1}},
			Nodes:   []string{"node1", "node2"},
			Functions: []core.FunctionSpec{
				{Name: "front", Tenant: "tenant_a", Node: "node1", Service: 10 * time.Microsecond},
				{Name: "back", Tenant: backTenant, Node: "node2", Service: 10 * time.Microsecond},
			},
			Chains: []core.ChainSpec{{
				Name: "chain", Tenant: "tenant_a", Entry: "front",
				ReqBytes: 512, RespBytes: 512,
				Calls: []core.Call{{Callee: "back", ReqBytes: 4096, RespBytes: 4096}},
			}},
			Seed: o.Seed,
		}
		c := core.NewCluster(cfg)
		defer c.Eng.Stop()
		d := &workload.Driver{Chains: []string{"chain"}, Clients: 1, Requests: 200, Ready: c.OnReady}
		d.Start(c.Eng, c.SubmitChainSpec)
		c.Eng.RunUntil(2 * time.Second)
		return c.ChainLatency["chain"].Mean(), c.CrossTenantCopies()
	}
	lats := make([]time.Duration, 2)
	var copies uint64
	o.forEach(2, func(i int) {
		if i == 0 {
			lats[0], _ = mk(false)
		} else {
			lats[1], copies = mk(true)
		}
	})
	return &AblCrossTenantResult{SameLat: lats[0], CrossLat: lats[1], Copies: copies}
}

// RunAblCrossTenant adapts AblCrossTenant to the registry.
func RunAblCrossTenant(o Opts) []*Table {
	res := AblCrossTenant(o)
	return []*Table{{
		Title:   "Ablation — same-tenant zero copy vs cross-tenant sidecar copies (§3.1)",
		Columns: []string{"boundary", "chain latency", "sidecar copies"},
		Rows: [][]string{
			{"within one tenant", fLat(res.SameLat), "0"},
			{"across tenants", fLat(res.CrossLat), fmt.Sprintf("%d", res.Copies)},
		},
		Note: "trust stops at the tenant boundary: crossing it reintroduces the copies zero-copy removed",
	}}
}

// Ablations returns the ablation registry entries.
func Ablations() []Experiment {
	return []Experiment{
		{ID: "abl-connpool", Title: "Ablation — RC connection pooling", Run: RunAblConnPool},
		{ID: "abl-isolation", Title: "Ablation — active-QP cap vs rogue tenant", Run: RunAblIsolation},
		{ID: "abl-replenish", Title: "Ablation — RQ replenishment period", Run: RunAblReplenish},
		{ID: "abl-quantum", Title: "Ablation — DWRR quantum size", Run: RunAblQuantum},
		{ID: "abl-hugepage", Title: "Ablation — hugepage vs 4K-page pools", Run: RunAblHugepage},
		{ID: "abl-keepwarm", Title: "Ablation — keep-warm vs cold starts", Run: RunAblKeepWarm},
		{ID: "abl-fanout", Title: "Ablation — sequential vs parallel fan-out", Run: RunAblFanout},
		{ID: "abl-crosstenant", Title: "Ablation — cross-tenant copy cost", Run: RunAblCrossTenant},
	}
}
