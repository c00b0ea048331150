package experiments

import (
	"fmt"
	"time"

	"nadino/internal/boutique"
	"nadino/internal/chaos"
	"nadino/internal/core"
	"nadino/internal/fabric"
	"nadino/internal/ingress"
	"nadino/internal/trace"
	"nadino/internal/workload"
)

// FabricShardRow is one (transport, placement) measurement of the boutique
// sharded across four worker nodes: cross-node hops either ride the
// inter-gateway fabric (one-sided writes between per-node gateways) or the
// engines' per-tenant QPs, under locality-aware or adversarial placement.
type FabricShardRow struct {
	Fabric    bool // gateway tier on (vs direct per-tenant QPs)
	Skewed    bool // round-robin anti-locality placement (vs gateway.Place)
	RPS       float64
	MeanLat   time.Duration
	Forwarded uint64 // gateway writes posted
	Transit   uint64 // multi-hop relay legs
}

func transportName(gw bool) string {
	if gw {
		return "gw fabric"
	}
	return "per-tenant QPs"
}

func placementName(skewed bool) string {
	if skewed {
		return "skewed"
	}
	return "locality"
}

// runFabricShard drives closed-loop clients on the Home Query chain of one
// 4-node sharded deployment. With o.Trace set the tracer is installed after
// warmup, so gw.queue / gw.hop spans attribute the fabric's share of latency.
func runFabricShard(o Opts, useGw, skewed bool, clients int, dur time.Duration, tracer *trace.Tracer) FabricShardRow {
	cfg := boutique.ShardedConfig(core.NadinoDNE, o.Seed, 4, skewed)
	cfg.Gateways = useGw
	c := core.NewCluster(cfg)
	defer c.Eng.Stop()
	chain := boutique.HomeQuery
	d := &workload.Driver{Chains: []string{chain}, Clients: clients, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	warm := c.P.QPSetupTime + 10*time.Millisecond
	c.Eng.RunUntil(warm)
	c.Completed.MarkWindow(c.Eng.Now())
	c.ChainLatency[chain].Reset()
	if tracer != nil {
		tracer.SetClock(c.Eng.Now)
		c.SetTracer(tracer)
	}
	c.Eng.RunUntil(warm + dur)
	row := FabricShardRow{
		Fabric:  useGw,
		Skewed:  skewed,
		RPS:     c.Completed.WindowRate(c.Eng.Now()),
		MeanLat: c.ChainLatency[chain].Mean(),
	}
	for _, g := range c.Gateways() {
		s := g.Stats()
		row.Forwarded += s.Forwarded
		row.Transit += s.Transit
	}
	return row
}

// FabricShard sweeps transport x placement on the 4-node sharded boutique.
func FabricShard(o Opts) []FabricShardRow {
	clients := 48
	dur := o.scale(40*time.Millisecond, 200*time.Millisecond)
	if o.Quick {
		clients = 16
	}
	type job struct{ gw, skewed bool }
	jobs := []job{
		{gw: false, skewed: false},
		{gw: false, skewed: true},
		{gw: true, skewed: false},
		{gw: true, skewed: true},
	}
	rows := make([]FabricShardRow, len(jobs))
	tracers := make([]*trace.Tracer, len(jobs))
	o.forEach(len(jobs), func(i int) {
		var tr *trace.Tracer
		if o.Trace && jobs[i].gw {
			tr = trace.New(nil)
		}
		rows[i] = runFabricShard(o, jobs[i].gw, jobs[i].skewed, clients, dur, tr)
		tracers[i] = tr
	})
	for i, tr := range tracers {
		if tr != nil && o.TraceSink != nil {
			o.TraceSink(fmt.Sprintf("fabric-shard/%s", placementName(jobs[i].skewed)), tr)
		}
	}
	return rows
}

// RunFabricShard adapts FabricShard to the registry.
func RunFabricShard(o Opts) []*Table {
	rows := FabricShard(o)
	t := &Table{
		Title:   "Fabric — sharded boutique (4 nodes): transport x placement",
		Columns: []string{"transport", "placement", "RPS", "mean lat", "gw writes", "transit"},
		Note: "locality placement (gateway.Place) co-locates adjacent chain stages; " +
			"skewed (round-robin) makes every hop cross the fabric",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			transportName(r.Fabric), placementName(r.Skewed),
			fRPS(r.RPS), fLat(r.MeanLat),
			fmt.Sprintf("%d", r.Forwarded), fmt.Sprintf("%d", r.Transit),
		})
	}
	return []*Table{t}
}

// FabricFailoverResult captures one partition-failover run on a 3-node chain
// whose only remote hop is node1 -> node3 (node2 is a pure relay): phase
// completion counts, the detour evidence, and the final route-table state.
type FabricFailoverResult struct {
	Issued                  uint64
	PrePartition            uint64 // completed before the cut
	DuringPartition         uint64 // completed while node1|node3 is cut
	PostHeal                uint64 // completed after the heal
	Transit, Retries, Drops uint64
	RouteVersionSum         uint64 // total route-table version bumps across gateways
}

// FabricFailover cuts node1|node3 mid-run and measures the gateway tier
// re-routing the chain through node2 until the partition heals.
func FabricFailover(o Opts) FabricFailoverResult {
	cfg := core.Config{
		System:   core.NadinoDNE,
		Nodes:    []string{"node1", "node2", "node3"},
		Gateways: true,
		Functions: []core.FunctionSpec{
			{Name: "f1", Node: "node1", Service: 15 * time.Microsecond},
			{Name: "f2", Node: "node3", Service: 10 * time.Microsecond},
		},
		Chains: []core.ChainSpec{{
			Name: "hop", Entry: "f1", ReqBytes: 512, RespBytes: 512,
			Calls: []core.Call{{Callee: "f2", ReqBytes: 1024, RespBytes: 1024}},
		}},
		Seed: o.Seed,
	}
	c := core.NewCluster(cfg)
	defer c.Eng.Stop()
	partAt := o.scale(60*time.Millisecond, 150*time.Millisecond)
	partFor := o.scale(50*time.Millisecond, 150*time.Millisecond)
	every := o.scale(400*time.Microsecond, 600*time.Microsecond)
	endAt := o.scale(300*time.Millisecond, time.Second)
	in := c.NewChaos(o.Seed)
	in.Install(chaos.Schedule{{
		At: partAt, For: partFor,
		Fault: chaos.Partition{A: []fabric.NodeID{"node1"}, B: []fabric.NodeID{"node3"}},
	}})
	var res FabricFailoverResult
	d := &workload.Driver{
		Chains: []string{"hop"},
		Think:  workload.Every(every),
		Until:  endAt - 10*time.Millisecond,
		Ready:  c.OnReady,
	}
	d.Start(c.Eng, func(chain string, n, clone int, hedge time.Duration, reply func(ingress.Response)) {
		res.Issued++
		c.SubmitChainSpec(chain, n, clone, hedge, reply)
	})
	c.Eng.At(partAt, func() { res.PrePartition = c.Completed.Total() })
	c.Eng.At(partAt+partFor, func() {
		res.DuringPartition = c.Completed.Total() - res.PrePartition
	})
	c.Eng.RunUntil(endAt)
	res.PostHeal = c.Completed.Total() - res.PrePartition - res.DuringPartition
	for _, g := range c.Gateways() {
		s := g.Stats()
		res.Transit += s.Transit
		res.Retries += s.Retries
		res.Drops += s.Dropped
		res.RouteVersionSum += g.Routes().Version()
	}
	return res
}

// RunFabricFailover adapts FabricFailover to the registry.
func RunFabricFailover(o Opts) []*Table {
	res := FabricFailover(o)
	t := &Table{
		Title:   "Fabric — partition failover on a 3-node chain (node1 | node3)",
		Columns: []string{"phase", "completed"},
		Note: fmt.Sprintf(
			"issued=%d transit=%d retries=%d drops=%d route-version bumps=%d; "+
				"transit legs are the node2 detour while the direct link is cut",
			res.Issued, res.Transit, res.Retries, res.Drops, res.RouteVersionSum),
	}
	t.Rows = append(t.Rows,
		[]string{"pre-partition", fmt.Sprintf("%d", res.PrePartition)},
		[]string{"during partition", fmt.Sprintf("%d", res.DuringPartition)},
		[]string{"post-heal", fmt.Sprintf("%d", res.PostHeal)},
	)
	return []*Table{t}
}

// Fabric returns the multi-node gateway-fabric experiments.
func Fabric() []Experiment {
	return []Experiment{
		{ID: "fabric-shard", Title: "Fabric — sharded boutique: transport x placement", Run: RunFabricShard},
		{ID: "fabric-failover", Title: "Fabric — inter-gateway partition failover", Run: RunFabricFailover},
	}
}
