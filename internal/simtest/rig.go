package simtest

import (
	"errors"
	"fmt"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/core"
	"nadino/internal/fabric"
	"nadino/internal/flightrec"
	"nadino/internal/ingress"
	"nadino/internal/mempool"
	"nadino/internal/sim"
	"nadino/internal/telemetry"
	"nadino/internal/trace"
	"nadino/internal/workload"
)

// tenantRig is one tenant's request ledger, kept at the SubmitChain
// boundary: issued counts submissions, completed first replies and
// inFlight the requests still unanswered; doubles counts replies to
// requests that had already been answered (a violation).
type tenantRig struct {
	sc    TenantScenario
	idx   int // position in the cluster's tenant order
	chain string

	issued, completed, inFlight, doubles uint64

	// windowCompleted is the completion count at the end of the load
	// window (fairness invariant).
	windowCompleted uint64
}

// Rig is one built scenario world: the cluster plus the harness state the
// invariant registry reads.
type Rig struct {
	sc  Scenario
	c   *core.Cluster
	eng *sim.Engine
	inj *chaos.Injector

	tenants []*tenantRig
	clients int // client ids handed out (the ingress RSS key)

	tracer  *trace.Tracer
	scraper *telemetry.Scraper

	// Flight recorder: always on, ring-buffered, kept out of Report so
	// fingerprints stay stable; dumped into Result.FlightDump on failure.
	rec      *flightrec.Recorder
	invActor uint16

	warm, loadEnd, endAt time.Duration

	// Ownership-auditor results (Transfers > 0).
	auditOps  int
	auditErrs []string

	// Invariant checker state.
	lastNow    time.Duration
	lastBusy   map[*sim.Processor]time.Duration
	violations []Violation
	tripped    map[string]bool
}

// scrapePeriod samples telemetry often enough for ~100 points per run.
const scrapePeriod = 2 * time.Millisecond

// NewRig builds the scenario's cluster on a fresh engine and arms its load,
// faults and telemetry. Nothing runs until Run (or a caller-driven
// RunUntil) advances the clock.
func NewRig(sc Scenario) *Rig {
	tracer := trace.New(nil)
	tracer.SetLimit(0)
	cfg := sc.Config()
	cfg.Tracer = tracer
	c := core.NewCluster(cfg)
	r := &Rig{
		sc:       sc,
		c:        c,
		eng:      c.Eng,
		tracer:   tracer,
		rec:      flightrec.New(4096, c.Eng.Now),
		lastBusy: make(map[*sim.Processor]time.Duration),
		tripped:  make(map[string]bool),
	}
	r.invActor = r.rec.Actor("invariant")
	r.warm = c.P.QPSetupTime + 2*time.Millisecond
	r.loadEnd = r.warm + sc.Load
	r.endAt = r.loadEnd + sc.Drain
	for i, ts := range sc.Tenants {
		r.tenants = append(r.tenants, &tenantRig{sc: ts, idx: i, chain: "echo-" + ts.Name})
	}

	r.inj = c.NewChaos(sc.Seed)
	r.inj.SetFlightRecorder(r.rec)
	r.installFaults()

	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	r.scraper = reg.Scrape(r.eng, scrapePeriod)

	r.eng.At(r.warm, r.startLoad)
	r.eng.At(r.loadEnd, func() {
		for _, tr := range r.tenants {
			tr.windowCompleted = tr.completed
		}
	})
	return r
}

// installFaults maps the scenario's FaultSpecs onto chaos events against
// the cluster's standard targets. Spec times are relative to the start of
// the load window.
func (r *Rig) installFaults() {
	var sched chaos.Schedule
	nodes := make([]fabric.NodeID, r.sc.Nodes)
	for i := range nodes {
		nodes[i] = fabric.NodeID(nodeNames[i])
	}
	for _, f := range r.sc.Faults {
		at := r.warm + f.At
		node := nodes[f.Node%r.sc.Nodes]
		switch f.Kind {
		case FaultLinkStorm:
			// Outages are capped well inside the transport-retry horizon
			// so a storm degrades but never strands traffic.
			sched = append(sched, r.inj.LinkStorm(nodes, at, f.For, f.Count, 2*time.Millisecond)...)
		case FaultQPError:
			sched = append(sched, chaos.Event{At: at,
				Fault: chaos.QPError{Target: "qp@" + string(node), Count: f.Count}})
			if r.sc.Gateways {
				sched = append(sched, chaos.Event{At: at,
					Fault: chaos.QPError{Target: "gw-qp@" + string(node), Count: f.Count}})
			}
		case FaultNodeCrash:
			sched = append(sched, chaos.Event{At: at, For: f.For,
				Fault: chaos.NodeCrash{Node: node, QPs: "crash@" + string(node)}})
		case FaultDMAStall:
			sched = append(sched, chaos.Event{At: at, For: f.For,
				Fault: chaos.DMAStall{Target: "dma@" + string(node)}})
		case FaultSlowCores:
			sched = append(sched, chaos.Event{At: at, For: f.For,
				Fault: chaos.SlowCores{Target: "cores@" + string(node), Factor: f.Factor}})
		case FaultPartition:
			var rest []fabric.NodeID
			for _, id := range nodes {
				if id != node {
					rest = append(rest, id)
				}
			}
			sched = append(sched, chaos.Event{At: at, For: f.For,
				Fault: chaos.Partition{A: []fabric.NodeID{node}, B: rest}})
		default:
			panic(fmt.Sprintf("simtest: unknown fault kind %q", f.Kind))
		}
	}
	r.inj.Install(sched)
}

// pool is tr's memory pool on its client node.
func (r *Rig) pool(tr *tenantRig) *mempool.Pool {
	return r.c.Nodes()[tr.sc.CliNode].Pools[tr.idx]
}

// startLoad opens the load window: the flight recorder goes onto the
// established QP pools, the planted defect strikes, and every tenant's
// driver starts.
func (r *Rig) startLoad() {
	if !r.c.Ready() {
		panic("simtest: cluster still setting up at load start")
	}
	r.c.AttachFlightRecorder(r.rec)
	if r.sc.Defect == DefectLeakBuffer {
		if _, err := r.pool(r.tenants[0]).Get("leak"); err != nil {
			panic(err)
		}
	}
	for _, tr := range r.tenants {
		switch tr.sc.Load {
		case LoadClosed:
			for i := 0; i < tr.sc.Clients; i++ {
				r.closedClient(tr)
			}
		case LoadOpen:
			r.openLoop(tr)
		case LoadPoisson:
			r.poisson(tr)
		default:
			panic(fmt.Sprintf("simtest: unknown load kind %q", tr.sc.Load))
		}
	}
	if r.sc.Transfers > 0 {
		r.audit()
	}
}

// submit issues one request for tr through the cluster's front door and
// books it on the ledger; then, if set, runs on its first reply.
func (r *Rig) submit(tr *tenantRig, client int, then func()) {
	tr.issued++
	tr.inFlight++
	answered := false
	r.c.SubmitChain(tr.chain, client, func(ingress.Response) {
		if answered {
			tr.doubles++
			return
		}
		answered = true
		tr.inFlight--
		tr.completed++
		if then != nil {
			then()
		}
	})
}

// client hands out the next client id.
func (r *Rig) client() int {
	r.clients++
	return r.clients
}

// jitter is a closed-loop client's think time: 0-3 µs decorrelates the
// lockstep clients.
func (r *Rig) jitter() time.Duration {
	return time.Duration(r.eng.Rand().Intn(3000)) * time.Nanosecond
}

// closedClient runs one closed-loop client: each reply issues the next
// request after the think-time jitter, until the load window ends.
func (r *Rig) closedClient(tr *tenantRig) {
	id := r.client()
	var issue func()
	next := func() { r.eng.After(r.jitter(), issue) }
	issue = func() {
		if r.eng.Now() < r.loadEnd {
			r.submit(tr, id, next)
		}
	}
	next()
}

// openLoop issues one request every Every until the load window ends.
func (r *Rig) openLoop(tr *tenantRig) {
	id := r.client()
	var tick func()
	tick = func() {
		if r.eng.Now() < r.loadEnd {
			r.submit(tr, id, nil)
			r.eng.After(tr.sc.Every, tick)
		}
	}
	r.eng.After(tr.sc.Every, tick)
}

// poisson drives the tenant from a workload.TraceGen arrival process
// (Poisson with a mild diurnal swing); arrivals after the load window are
// discarded.
func (r *Rig) poisson(tr *tenantRig) {
	id := r.client()
	gen := &workload.TraceGen{
		Chains:           []string{tr.chain},
		ZipfS:            1.0,
		BaseRPS:          tr.sc.RPS,
		DiurnalAmplitude: 0.3,
		Period:           r.sc.Load,
	}
	_, hook := gen.Start(r.eng)
	hook(func(string) {
		if r.eng.Now() < r.loadEnd {
			r.submit(tr, id, nil)
		}
	})
}

// audit interleaves cross-tenant ownership transfers with the load: each
// chain moves a buffer of the first tenant's pool from the auditor to a
// foreign tenant's actor and back, checking every access rule along the
// way. Unexpected outcomes are recorded as ownership-audit findings.
func (r *Rig) audit() {
	tr := r.tenants[0]
	pool := r.pool(tr)
	ownerA := mempool.Owner("aud-" + tr.sc.Name)
	foreign := "ghost"
	if len(r.tenants) > 1 {
		foreign = r.tenants[1].sc.Name
	}
	ownerB := mempool.Owner("aud-x-" + foreign)
	fail := func(format string, args ...any) {
		if len(r.auditErrs) < 8 {
			r.auditErrs = append(r.auditErrs, fmt.Sprintf(format, args...))
		}
	}
	gap := func() time.Duration { return time.Duration(50+r.eng.Rand().Intn(200)) * time.Microsecond }
	chains := 0
	var step func()
	step = func() {
		if chains >= r.sc.Transfers || r.eng.Now() >= r.loadEnd {
			return
		}
		chains++
		r.eng.After(gap(), step)
		b, err := pool.Get(ownerA)
		if err != nil {
			return // pool squeezed by the data plane; not a finding
		}
		if err := pool.Transfer(b, ownerA, ownerB); err != nil {
			fail("transfer %v->%v: %v", ownerA, ownerB, err)
		}
		if err := pool.Access(b, ownerB); err != nil {
			fail("new owner denied access: %v", err)
		}
		if err := pool.Access(b, ownerA); !errors.Is(err, mempool.ErrNotOwner) {
			fail("stale owner retained access: err=%v", err)
		}
		if err := pool.Transfer(b, ownerB, ownerA); err != nil {
			fail("transfer back: %v", err)
		}
		if err := pool.Put(b, ownerA); err != nil {
			fail("put: %v", err)
		}
		if err := pool.Access(b, ownerA); !errors.Is(err, mempool.ErrStaleBuffer) {
			fail("use after free not detected: err=%v", err)
		}
		r.auditOps++
	}
	r.eng.After(gap(), step)
}
