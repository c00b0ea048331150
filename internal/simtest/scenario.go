// Package simtest is the repository's deterministic-simulation fuzzer, in
// the FoundationDB tradition: a seeded scenario generator composes random
// topologies, tenant mixes, workloads and chaos schedules; each scenario is
// built as a core.Cluster — the assembly nadino-svc, the benchmark and the
// experiments run — loaded only through SubmitChain and faulted only
// through Cluster.NewChaos; a global invariant registry checks system-wide
// properties (buffer conservation, request conservation, QP legality,
// fairness, clock monotonicity, telemetry/trace consistency) over the
// cluster's read-only inspection surface at event boundaries and at end of
// run; and a shrinker reduces failing scenarios to minimal counterexamples
// by bisecting the fault schedule and the workload duration.
//
// Everything is a pure function of the scenario seed: a failing seed
// reported by the sweep (`nadino-bench -run fuzz`) reproduces
// byte-identically with `-seed <s> -fuzz-seeds 1`, sequentially or sharded.
package simtest

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nadino/internal/core"
	"nadino/internal/speculate"
)

// genSalt decorrelates the generator's RNG from the engine and chaos RNGs
// that consume the same seed.
const genSalt int64 = 0x73696d74657374 // "simtest"

// Workload kinds for one tenant.
const (
	// LoadClosed drives N closed-loop echo clients (each waits for its
	// response before issuing the next request).
	LoadClosed = "closed"
	// LoadOpen issues one request every Every, never waiting.
	LoadOpen = "open"
	// LoadPoisson draws Poisson arrivals at TraceRPS via workload.TraceGen.
	LoadPoisson = "poisson"
)

// TenantScenario is one tenant's slice of a generated scenario: function
// cli-<name> on CliNode calls srv-<name> on SrvNode, and chain echo-<name>
// enters at the client with Payload bytes each way.
type TenantScenario struct {
	Name   string
	Weight int
	// CliNode hosts the tenant's client function, SrvNode its echo server.
	CliNode, SrvNode int

	Load    string        // LoadClosed, LoadOpen or LoadPoisson
	Clients int           // closed-loop client count (LoadClosed)
	Every   time.Duration // open-loop send period (LoadOpen)
	RPS     float64       // Poisson arrival rate (LoadPoisson)
	Payload int           // request/response bytes
}

// Fault kinds a scenario can schedule (mapped onto internal/chaos faults by
// the runner).
const (
	FaultLinkStorm = "link-storm"
	FaultQPError   = "qp-error"
	FaultNodeCrash = "node-crash"
	FaultDMAStall  = "dma-stall"
	FaultSlowCores = "slow-cores"
	FaultPartition = "partition"
)

// FaultSpec is one declarative fault event. At is relative to the start of
// the load window (after QP setup and warmup), so shrinking the load does
// not silently move faults out of the run.
type FaultSpec struct {
	Kind   string
	At     time.Duration
	For    time.Duration
	Node   int     // target node index
	Count  int     // storm events or QPs to error
	Factor float64 // slow-cores speed factor
}

func (f FaultSpec) String() string {
	switch f.Kind {
	case FaultLinkStorm:
		return fmt.Sprintf("%s(n=%d at=%v span=%v)", f.Kind, f.Count, f.At, f.For)
	case FaultQPError:
		return fmt.Sprintf("%s(node%d n=%d at=%v)", f.Kind, f.Node, f.Count, f.At)
	case FaultSlowCores:
		return fmt.Sprintf("%s(node%d x%.2f at=%v for=%v)", f.Kind, f.Node, f.Factor, f.At, f.For)
	default:
		return fmt.Sprintf("%s(node%d at=%v for=%v)", f.Kind, f.Node, f.At, f.For)
	}
}

// Scenario is one fully-specified fuzz case: everything the runner needs to
// rebuild the same world, derived from Seed by Generate. The fields are
// plain values so the shrinker can perturb them and tests can construct
// scenarios directly; Config turns one into the core.Config that builds it.
type Scenario struct {
	Seed  int64
	Nodes int // worker nodes (2 or 3)

	// System is the data plane under test: core.NadinoDNE, or
	// core.NadinoCNE with the engine on a host core.
	System core.System

	// Load is the driven window after warmup; Drain keeps the engines
	// alive afterwards so retries, repairs and buffers come home before
	// the final invariant pass.
	Load  time.Duration
	Drain time.Duration

	Tenants []TenantScenario
	Faults  []FaultSpec

	// Transfers > 0 runs an ownership auditor that interleaves that many
	// cross-tenant mempool.Transfer chains with the data-plane load.
	Transfers int

	// Defect plants a deliberate bug in the harness so the invariant
	// registry has something to catch (tests and demos): "leak-buffer"
	// makes the rig take one tenant-pool buffer at load start and never
	// return it.
	Defect string

	// Gateways routes cross-node hops through the per-node gateway tier
	// (internal/gateway) instead of the engines' direct per-tenant QPs,
	// putting route-table failover and the landing-window credit protocol
	// under the invariant registry (route-consistency).
	Gateways bool

	// CloneN > 1 makes the ingress fire that many arms per request
	// (internal/speculate): first completion wins, losers are killed
	// mid-plane via the descriptor cancellation probe or suppressed at the
	// ingress boundary (speculation-safety invariant).
	CloneN int
	// HedgeAfter > 0 arms a hedged retry per request with that deadline
	// floor (the rolling P95 takes over once the window warms).
	HedgeAfter time.Duration
	// PSServe runs every function core processor-sharing instead of FCFS
	// (sim.PS), putting the PS quantum re-arm path under the fuzzer.
	PSServe bool
}

// Speculative reports whether the scenario fires more than one arm per
// request (cloning or hedging).
func (sc Scenario) Speculative() bool { return sc.CloneN > 1 || sc.HedgeAfter > 0 }

// DefectLeakBuffer is the planted harness bug used to prove the fuzzer
// catches (and shrinks) invariant violations.
const DefectLeakBuffer = "leak-buffer"

// nodeNames map scenario node indices onto the repository's conventional
// node names.
var nodeNames = []string{"nodeA", "nodeB", "nodeC"}

// gwWindow is the landing-slot window per (gateway, tenant): small enough
// to exercise the credit protocol under load.
const gwWindow = 8

// srvService is the echo server's application work per request: enough
// that PS serving has concurrent jobs to share a core between.
const srvService = 2 * time.Microsecond

// poolBuffers sizes every tenant pool at a quarter of core's default: the
// invariants audit each pool every check tick, in time linear in its size,
// and sweeps peak near 600 buffers per worker pool and 1,100 per ingress
// pool (1,024 of them the posted receive ring).
const poolBuffers = 4096

// Config is the cluster that runs the scenario — the same assembly path
// nadino-svc, the benchmark and the experiments use. Every tenant gets
// functions cli-<t> and srv-<t> and the chain echo-<t>; the first tenant is
// the cluster's default tenant.
func (sc Scenario) Config() core.Config {
	cfg := core.Config{
		System:      sc.System,
		Nodes:       nodeNames[:sc.Nodes],
		PoolBuffers: poolBuffers,
		Gateways:    sc.Gateways,
		PSCores:     sc.PSServe,
		Speculate: speculate.Policy{
			CloneN:   sc.CloneN,
			Hedge:    sc.HedgeAfter > 0,
			HedgeMin: sc.HedgeAfter,
		},
		Seed: sc.Seed,
	}
	if sc.Gateways {
		cfg.GatewayWindow = gwWindow
	}
	for i, t := range sc.Tenants {
		if i == 0 {
			cfg.Tenant = t.Name
		}
		cfg.Tenants = append(cfg.Tenants, core.TenantSpec{Name: t.Name, Weight: t.Weight})
		cfg.Functions = append(cfg.Functions,
			core.FunctionSpec{Name: "cli-" + t.Name, Tenant: t.Name, Node: nodeNames[t.CliNode]},
			core.FunctionSpec{Name: "srv-" + t.Name, Tenant: t.Name, Node: nodeNames[t.SrvNode],
				Service: srvService})
		cfg.Chains = append(cfg.Chains, core.ChainSpec{
			Name: "echo-" + t.Name, Tenant: t.Name, Entry: "cli-" + t.Name,
			ReqBytes: t.Payload, RespBytes: t.Payload,
			Calls: []core.Call{{Callee: "srv-" + t.Name, ReqBytes: t.Payload, RespBytes: t.Payload}},
		})
	}
	return cfg
}

// tenantNames label generated tenants.
var tenantNames = []string{"amber", "basil", "coral"}

// Generate derives a scenario from seed. Same seed, same scenario — the
// whole fuzz contract hangs on this being a pure function.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed ^ genSalt))
	sc := Scenario{
		Seed:   seed,
		Nodes:  2 + rng.Intn(2),
		System: core.NadinoDNE,
		Load:   8*time.Millisecond + time.Duration(rng.Intn(22))*time.Millisecond,
		Drain:  200 * time.Millisecond,
	}
	if rng.Intn(4) == 0 {
		sc.System = core.NadinoCNE
	}

	// Symmetric scenarios share one node pair with identical tenants —
	// the fairness-eligible shape the DWRR invariant can bound tightly.
	symmetric := rng.Intn(2) == 0
	nTenants := 1 + rng.Intn(3)
	if symmetric {
		nTenants = 2 + rng.Intn(2)
	}
	payload := 64 << rng.Intn(7) // 64B..4KB
	weight := 1 + rng.Intn(4)
	clients := 4 + rng.Intn(13)
	for i := 0; i < nTenants; i++ {
		ts := TenantScenario{
			Name:    tenantNames[i],
			Weight:  weight,
			CliNode: 0,
			SrvNode: 1,
			Load:    LoadClosed,
			Clients: clients,
			Payload: payload,
		}
		if !symmetric {
			ts.Weight = 1 + rng.Intn(4)
			ts.Payload = 64 << rng.Intn(7)
			ts.CliNode = rng.Intn(sc.Nodes)
			ts.SrvNode = (ts.CliNode + 1 + rng.Intn(sc.Nodes-1)) % sc.Nodes
			switch rng.Intn(4) {
			case 0:
				ts.Load = LoadOpen
				ts.Clients = 0
				ts.Every = time.Duration(40+rng.Intn(360)) * time.Microsecond
			case 1:
				ts.Load = LoadPoisson
				ts.Clients = 0
				ts.RPS = 2000 + 2000*float64(rng.Intn(8))
			default:
				ts.Clients = 1 + rng.Intn(16)
			}
		}
		sc.Tenants = append(sc.Tenants, ts)
	}

	// Fault schedule: half the scenarios run fault-free (so the strict
	// no-loss invariants get coverage), the rest draw 1-3 events confined
	// to the middle of the load window. Outages are kept short enough for
	// the transport-retry plus engine-retry horizon, so every scenario
	// must quiesce clean.
	if rng.Intn(2) == 1 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			at := sc.Load/8 + time.Duration(rng.Int63n(int64(sc.Load/2)))
			f := FaultSpec{At: at, Node: rng.Intn(sc.Nodes)}
			switch rng.Intn(6) {
			case 0:
				f.Kind = FaultLinkStorm
				f.Count = 3 + rng.Intn(8)
				f.For = 2*time.Millisecond + time.Duration(rng.Intn(4))*time.Millisecond
			case 1:
				f.Kind = FaultQPError
				f.Count = rng.Intn(coreQPs + 1) // 0 = all
			case 2:
				f.Kind = FaultNodeCrash
				f.For = time.Duration(500+rng.Intn(4500)) * time.Microsecond
			case 3:
				f.Kind = FaultDMAStall
				f.For = time.Duration(200+rng.Intn(1800)) * time.Microsecond
			case 4:
				f.Kind = FaultSlowCores
				f.For = 1*time.Millisecond + time.Duration(rng.Intn(4))*time.Millisecond
				f.Factor = 0.25 + 0.5*rng.Float64()
			default:
				f.Kind = FaultPartition
				f.For = time.Duration(500+rng.Intn(3000)) * time.Microsecond
			}
			sc.Faults = append(sc.Faults, f)
		}
	}
	if rng.Intn(2) == 0 {
		sc.Transfers = 8 + rng.Intn(56)
	}
	sc.Gateways = rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		sc.CloneN = 2 + rng.Intn(2)
	}
	if rng.Intn(3) == 0 {
		sc.HedgeAfter = time.Duration(150+rng.Intn(600)) * time.Microsecond
	}
	sc.PSServe = rng.Intn(4) == 0
	return sc
}

// coreQPs is the RC pool size core.Cluster establishes per link.
const coreQPs = 8

// Symmetric reports whether the scenario is fairness-eligible: every tenant
// closed-loop on the same node pair with the same weight, client count and
// payload, so DWRR must split goodput evenly.
func (sc Scenario) Symmetric() bool {
	if len(sc.Tenants) < 2 {
		return false
	}
	t0 := sc.Tenants[0]
	for _, t := range sc.Tenants {
		if t.Load != LoadClosed || t.Clients != t0.Clients || t.Weight != t0.Weight ||
			t.Payload != t0.Payload || t.CliNode != t0.CliNode || t.SrvNode != t0.SrvNode {
			return false
		}
	}
	return true
}

// String renders a compact, deterministic description used in fuzz reports.
func (sc Scenario) String() string {
	var b strings.Builder
	sys := "nadino-dne"
	if sc.System == core.NadinoCNE {
		sys = "nadino-cne"
	}
	fmt.Fprintf(&b, "seed=%d nodes=%d %s load=%v", sc.Seed, sc.Nodes, sys, sc.Load)
	for _, t := range sc.Tenants {
		fmt.Fprintf(&b, " %s[n%d>n%d w%d %s", t.Name, t.CliNode, t.SrvNode, t.Weight, t.Load)
		switch t.Load {
		case LoadClosed:
			fmt.Fprintf(&b, " c%d", t.Clients)
		case LoadOpen:
			fmt.Fprintf(&b, " every=%v", t.Every)
		case LoadPoisson:
			fmt.Fprintf(&b, " rps=%.0f", t.RPS)
		}
		fmt.Fprintf(&b, " %dB]", t.Payload)
	}
	for _, f := range sc.Faults {
		fmt.Fprintf(&b, " fault=%s", f)
	}
	if sc.Transfers > 0 {
		fmt.Fprintf(&b, " transfers=%d", sc.Transfers)
	}
	if sc.Defect != "" {
		fmt.Fprintf(&b, " defect=%s", sc.Defect)
	}
	if sc.Gateways {
		b.WriteString(" gw")
	}
	if sc.CloneN > 1 {
		fmt.Fprintf(&b, " clone=%d", sc.CloneN)
	}
	if sc.HedgeAfter > 0 {
		fmt.Fprintf(&b, " hedge=%v", sc.HedgeAfter)
	}
	if sc.PSServe {
		b.WriteString(" ps")
	}
	return b.String()
}
