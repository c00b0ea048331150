package core

import (
	"fmt"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/dne"
	"nadino/internal/dpu"
	"nadino/internal/fabric"
	"nadino/internal/gateway"
	"nadino/internal/ingress"
	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/metrics"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
	"nadino/internal/speculate"
	"nadino/internal/trace"
	"nadino/internal/transport"
)

// TenantSpec declares a tenant (in NADINO, a function chain and its
// functions form one tenant, §3.1) and its DWRR weight.
type TenantSpec struct {
	Name   string
	Weight int
}

// Config assembles a cluster for one data-plane system.
type Config struct {
	System System
	// Tenant names the default tenant; functions and chains that leave
	// their Tenant field empty belong to it.
	Tenant string
	// Tenants optionally declares additional tenants with weights. The
	// default tenant is always present.
	Tenants []TenantSpec
	// Nodes lists worker node names; single-node systems use the first.
	Nodes     []string
	Functions []FunctionSpec
	Chains    []ChainSpec

	// PoolBuffers and BufSize dimension each node's unified memory pool.
	PoolBuffers int
	BufSize     int

	// Ingress settings.
	IngressWorkers   int
	IngressAutoScale bool
	IngressMax       int

	// AutoscaleEvery is the function autoscaler's evaluation period
	// (default 5ms of simulated time).
	AutoscaleEvery time.Duration

	// Gateways, on NADINO systems, puts a per-node gateway tier in front of
	// the engines' direct per-tenant QPs: cross-node hops travel as
	// inter-gateway one-sided writes with route-table failover (see
	// internal/gateway). GatewayWindow overrides the per-tenant landing
	// window (0 = params.GwWindow).
	Gateways      bool
	GatewayWindow int

	// Tracer, when non-nil, records a per-stage latency trace for every
	// request submitted through SubmitChain (see internal/trace). A nil
	// tracer keeps the whole path span-free.
	Tracer *trace.Tracer

	// Speculate configures clone-to-N and hedged retries at the ingress
	// (zero value = no speculation); see internal/speculate.
	Speculate speculate.Policy
	// PSCores runs every function core in processor-sharing mode instead
	// of FCFS: concurrent handler work on a core progresses at 1/n speed
	// rather than queueing (the clone-sweep experiments compare both).
	PSCores bool

	Seed int64
}

// ingressNodeName is the fabric name of the dedicated ingress node.
const ingressNodeName = "ingress"

// ingressOwner is the mempool owner used by the ingress RDMA backend.
const ingressOwner mempool.Owner = "ingress-gw"

// Node is one worker node.
type Node struct {
	name fabric.NodeID
	// reg is the node's DPDK-style file-prefix namespace; pools holds one
	// unified memory pool per tenant (§3.4.1).
	reg   *mempool.Registry
	pools map[string]*mempool.Pool
	dpu   *dpu.DPU

	engine *dne.Engine      // NADINO systems
	fuyao  *fuyaoEngine     // FUYAO systems
	gw     *gateway.Gateway // NADINO systems with Config.Gateways

	// schedCore is Junction's dedicated per-node scheduler core (always
	// busy-polling, contributes no packet work).
	schedCore *sim.Processor

	fns []*Function
}

// Function is one deployed function instance with a dedicated core.
type Function struct {
	spec   FunctionSpec
	name   string
	tenant string
	owner  mempool.Owner
	node   *Node
	core   *sim.Processor
	group  *FnGroup
	// inflight counts requests accepted but not yet responded to — the
	// autoscaler's concurrency signal.
	inflight int

	inbox    *sim.Queue[mempool.Descriptor]
	handlers []*handler         // the Workers handlers serving the inbox
	localIn  *ipc.SKMsg         // shared-memory systems: local descriptor inbox
	tcpIn    *sim.Queue[tcpMsg] // TCP systems: socket inbox
	port     *dne.FnPort        // NADINO systems
}

// tcpMsg is a message crossing a modeled TCP socket (payload copied, so no
// pool buffer travels with it).
type tcpMsg struct {
	Bytes int
	Ctx   *msgCtx // its record names source and destination
	Trace *trace.Req
}

// Cluster is the assembled system under test.
type Cluster struct {
	Eng *sim.Engine
	P   *params.Params
	cfg Config

	net     *fabric.Network
	nodes   map[string]*Node
	nodeSeq []*Node
	fns     map[string]*Function
	fnSeq   []*Function // declaration order: map walks are nondeterministic
	groups  map[string]*FnGroup
	chains  map[string]*ChainSpec
	tenants []TenantSpec
	// crossTenantCopies counts sidecar-enforced copies between tenants.
	crossTenantCopies uint64
	// coldStarts counts container boots paid by idle handlers.
	coldStarts uint64
	// specFnKills counts speculative clones killed at a function's inbox
	// dequeue (the deepest core-side cancellation point).
	specFnKills uint64
	// freeArms pools the fan-out arms of async call groups.
	freeArms []*callOp

	gw      *ingress.Gateway
	tracer  *trace.Tracer
	rdmaBE  *rdmaBackend
	tcpBE   *tcpBackend
	isReady bool
	// readyQ holds the OnReady continuations waiting for setup, in order.
	readyQ []func()

	// appBusy accumulates pure application compute charged to function
	// cores; (total fn core busy - appBusy) is data-plane CPU (§4.3.1).
	appBusy time.Duration

	// Latency and completion accounting per chain.
	ChainLatency map[string]*metrics.Hist
	Completed    *metrics.Meter
}

// NewCluster builds and wires the whole system; the returned cluster's
// engine still needs Run. Gate clients on OnReady (or just start them —
// requests queue behind connection setup).
func NewCluster(cfg Config) *Cluster {
	if cfg.Tenant == "" {
		cfg.Tenant = "tenant_1"
	}
	tenants := []TenantSpec{{Name: cfg.Tenant, Weight: 1}}
	for _, ts := range cfg.Tenants {
		if ts.Weight <= 0 {
			ts.Weight = 1
		}
		if ts.Name == cfg.Tenant {
			tenants[0].Weight = ts.Weight
			continue
		}
		tenants = append(tenants, ts)
	}
	if cfg.PoolBuffers == 0 {
		cfg.PoolBuffers = 16384
	}
	if cfg.BufSize == 0 {
		cfg.BufSize = 8192
	}
	if cfg.IngressWorkers == 0 {
		cfg.IngressWorkers = 1
	}
	if cfg.IngressMax == 0 {
		cfg.IngressMax = cfg.IngressWorkers
	}
	if len(cfg.Nodes) == 0 {
		panic("core: cluster needs at least one node")
	}
	p := params.Default()
	eng := sim.NewEngine(cfg.Seed)
	c := &Cluster{
		Eng:          eng,
		P:            p,
		cfg:          cfg,
		net:          fabric.New(eng, p),
		nodes:        make(map[string]*Node),
		fns:          make(map[string]*Function),
		groups:       make(map[string]*FnGroup),
		chains:       make(map[string]*ChainSpec),
		ChainLatency: make(map[string]*metrics.Hist),
		Completed:    metrics.NewMeter(),
	}
	c.tenants = tenants
	c.tracer = cfg.Tracer
	c.tracer.SetClock(eng.Now)
	for i := range cfg.Chains {
		ch := cfg.Chains[i]
		c.chains[ch.Name] = &ch
		c.ChainLatency[ch.Name] = metrics.NewHist()
	}

	nodeNames := cfg.Nodes
	if cfg.System.SingleNode() {
		nodeNames = cfg.Nodes[:1]
	}
	for _, name := range nodeNames {
		c.addNode(name)
	}
	for _, fs := range cfg.Functions {
		logical := fs.Name
		if fs.MaxScale > 1 {
			// Scalable functions get instance-suffixed names so the
			// logical name unambiguously addresses the load balancer.
			fs.Name = logical + "@1"
		}
		f := c.addFunction(fs)
		spec := fs
		spec.Name = logical
		g := &FnGroup{name: logical, spec: spec, instances: []*Function{f}, enabled: []bool{true}}
		f.group = g
		c.groups[logical] = g
		if fs.MaxScale > 1 {
			c.startAutoscaler(g)
		}
	}
	c.buildIngress()
	eng.Immediate(c.setup)
	return c
}

func (c *Cluster) addNode(name string) {
	n := &Node{
		name:  fabric.NodeID(name),
		reg:   mempool.NewRegistry(name),
		pools: make(map[string]*mempool.Pool),
		dpu:   dpu.New(c.Eng, c.P, fabric.NodeID(name), c.net, 2),
	}
	// Each tenant's shared-memory agent creates its pool under its own
	// file-prefix (§3.4.1).
	for _, ts := range c.tenants {
		pool, err := n.reg.CreatePool(ts.Name, c.cfg.BufSize, c.cfg.PoolBuffers, c.P.HugepageSize)
		if err != nil {
			panic(err)
		}
		n.pools[ts.Name] = pool
	}
	switch c.cfg.System {
	case NadinoDNE:
		n.engine = dne.New(c.Eng, c.P, dne.Config{
			Node: n.name, Mode: dne.OffPath, Loc: dne.OnDPU,
			Sched: dne.SchedDWRR, Channel: dpu.ComchE,
		}, n.dpu, nil, nil)
	case NadinoCNE:
		worker := sim.NewProcessor(c.Eng, name+"/cne", c.P.HostCoreSpeed)
		keeper := sim.NewProcessor(c.Eng, name+"/cne-k", c.P.HostCoreSpeed)
		n.engine = dne.New(c.Eng, c.P, dne.Config{
			Node: n.name, Mode: dne.OffPath, Loc: dne.OnCPU,
			Sched: dne.SchedDWRR,
		}, n.dpu, worker, keeper)
	case FuyaoF, FuyaoK:
		n.fuyao = newFuyaoEngine(c, n)
	case Junction:
		n.schedCore = sim.NewProcessor(c.Eng, name+"/junction-sched", c.P.HostCoreSpeed)
	}
	if n.engine != nil {
		for _, ts := range c.tenants {
			n.engine.AddTenant(ts.Name, n.pools[ts.Name], ts.Weight)
		}
		n.engine.SetDropHook(c.dropped)
	}
	if n.engine != nil && c.cfg.Gateways {
		n.gw = gateway.New(c.Eng, c.P, n.name, c.net, n.dpu.RNIC(), c.cfg.GatewayWindow)
		for _, ts := range c.tenants {
			n.gw.AddTenant(ts.Name, n.pools[ts.Name])
		}
		n.gw.SetEgress(n.engine)
		n.gw.SetDropHook(c.dropped)
		n.engine.SetForwarder(n.gw, n.gw.Owner())
	}
	c.nodes[name] = n
	c.nodeSeq = append(c.nodeSeq, n)
}

// pool returns node n's unified memory pool for tenant.
func (n *Node) pool(tenant string) *mempool.Pool { return n.pools[tenant] }

// noteInflight counts an ingress-originated request against the instance.
func (f *Function) noteInflight() { f.inflight++ }

func (c *Cluster) addFunction(fs FunctionSpec) *Function {
	if fs.Workers == 0 {
		fs.Workers = 8
	}
	nodeName := fs.Node
	if c.cfg.System.SingleNode() {
		nodeName = c.cfg.Nodes[0]
	}
	n, ok := c.nodes[nodeName]
	if !ok {
		panic(fmt.Sprintf("core: function %q placed on unknown node %q", fs.Name, fs.Node))
	}
	tenant := fs.Tenant
	if tenant == "" {
		tenant = c.cfg.Tenant
	}
	disc := sim.FCFS
	if c.cfg.PSCores {
		disc = sim.PS
	}
	f := &Function{
		spec:   fs,
		name:   fs.Name,
		tenant: tenant,
		owner:  mempool.Owner(fs.Name),
		node:   n,
		core:   sim.NewProcessorDisc(c.Eng, nodeName+"/"+fs.Name, c.P.HostCoreSpeed, disc),
		inbox:  sim.NewQueue[mempool.Descriptor](c.Eng, 0),
	}
	// The function maps its tenant's pool as a DPDK secondary process; the
	// registry rejects cross-tenant attachment (§3.4.1).
	if _, err := n.reg.Attach(tenant, tenant); err != nil {
		panic(err)
	}
	switch c.cfg.System {
	case NadinoDNE, NadinoCNE:
		f.localIn = ipc.NewSKMsg(c.Eng, c.P, nil)
		f.port = n.engine.AttachFunction(f.name, tenant)
	case FuyaoF, FuyaoK, Spright, NightCore:
		f.localIn = ipc.NewSKMsg(c.Eng, c.P, nil)
		if c.cfg.System == Spright {
			f.tcpIn = sim.NewQueue[tcpMsg](c.Eng, 0)
		}
	case Junction:
		f.tcpIn = sim.NewQueue[tcpMsg](c.Eng, 0)
	}
	// Deferred-conversion systems terminate ingress TCP on the worker:
	// give every potential entry function a socket inbox.
	if c.cfg.System != NadinoDNE && c.cfg.System != NadinoCNE && f.tcpIn == nil {
		f.tcpIn = sim.NewQueue[tcpMsg](c.Eng, 0)
	}
	n.fns = append(n.fns, f)
	c.fns[f.name] = f
	c.fnSeq = append(c.fnSeq, f)
	return f
}

// workerStack is the TCP stack terminating at worker nodes for
// deferred-conversion systems.
func (c *Cluster) workerStack() transport.Stack {
	switch c.cfg.System {
	case FuyaoK, NightCore:
		return transport.Kernel
	case Junction:
		return transport.Junction
	default:
		return transport.FStack
	}
}

func (c *Cluster) buildIngress() {
	kind := c.cfg.System.IngressKind()
	var backend ingress.Backend
	if kind == ingress.Nadino {
		c.rdmaBE = newRDMABackend(c)
		backend = c.rdmaBE
	} else {
		c.tcpBE = newTCPBackend(c)
		backend = c.tcpBE
	}
	icfg := ingress.Config{
		Kind:           kind,
		InitialWorkers: c.cfg.IngressWorkers,
		MaxWorkers:     c.cfg.IngressMax,
		AutoScale:      c.cfg.IngressAutoScale,
		Speculate:      c.cfg.Speculate,
	}
	if c.cfg.System == NightCore {
		// NightCore's built-in kernel gateway is a single-threaded HTTP
		// dispatcher inside its engine, substantially heavier than tuned
		// NGINX; calibrated against Table 2.
		icfg.ExtraPerRequest = 140 * time.Microsecond
		icfg.InitialWorkers, icfg.MaxWorkers = 1, 1
	}
	if c.cfg.System == FuyaoK {
		// The kernel NGINX ingress runs pinned to one core, as in the
		// §4.1.3 setup.
		icfg.InitialWorkers, icfg.MaxWorkers = 1, 1
	}
	c.gw = ingress.New(c.Eng, c.P, icfg, backend)
}

// chainTenant resolves a chain's owning tenant.
func (c *Cluster) chainTenant(spec *ChainSpec) string {
	if spec.Tenant != "" {
		return spec.Tenant
	}
	return c.cfg.Tenant
}

// SetTracer installs (or, with nil, removes) the request tracer at runtime;
// callers use it to start tracing only after a warmup window.
func (c *Cluster) SetTracer(tr *trace.Tracer) {
	tr.SetClock(c.Eng.Now)
	c.tracer = tr
}

// CrossTenantCopies reports sidecar-enforced copies between tenants.
func (c *Cluster) CrossTenantCopies() uint64 { return c.crossTenantCopies }

// ColdStarts reports container boots paid by idle handlers.
func (c *Cluster) ColdStarts() uint64 { return c.coldStarts }

// SpecFnKills reports speculative clones killed at function dequeue.
func (c *Cluster) SpecFnKills() uint64 { return c.specFnKills }

// Gateway returns the cluster ingress.
func (c *Cluster) Gateway() *ingress.Gateway { return c.gw }

// Engine returns node's network engine (NADINO systems).
func (c *Cluster) Engine(node string) *dne.Engine { return c.nodes[node].engine }

// Gateways returns every node gateway in node order (empty unless
// Config.Gateways).
func (c *Cluster) Gateways() []*gateway.Gateway {
	var out []*gateway.Gateway
	for _, n := range c.nodeSeq {
		if n.gw != nil {
			out = append(out, n.gw)
		}
	}
	return out
}

// Net returns the cluster fabric (chaos injection and stats).
func (c *Cluster) Net() *fabric.Network { return c.net }

// NewChaos builds a fault injector over the whole cluster with every
// standard target registered: the gateway as "ingress", and per node the
// SoC DMA as "dma@<node>", the DPU ARM cores as "cores@<node>", the node
// engine's RC connection pools as "qp@<node>", and the node's crash set as
// "crash@<node>" (QP targets are lazy providers — pools only exist once
// setup completes). Non-NADINO systems register no QP targets for nodes
// without an engine.
func (c *Cluster) NewChaos(seed int64) *chaos.Injector {
	in := chaos.NewInjector(c.Eng, c.net, seed)
	in.RegisterGateway("ingress", c.gw)
	for _, n := range c.nodeSeq {
		node := n
		in.RegisterStaller("dma@"+string(node.name), node.dpu.SoCDMA())
		in.RegisterCores("cores@"+string(node.name), node.dpu.Cores()...)
		if node.engine != nil {
			in.RegisterQPs("qp@"+string(node.name), func() []chaos.QPErrorTarget {
				pools := node.engine.ConnPools()
				ts := make([]chaos.QPErrorTarget, len(pools))
				for i, cp := range pools {
					ts[i] = cp
				}
				return ts
			})
			in.RegisterQPs("crash@"+string(node.name), func() []chaos.QPErrorTarget {
				return c.crashSet(node)
			})
		}
		if node.gw != nil {
			g := node.gw
			in.RegisterQPs("gw-qp@"+string(node.name), func() []chaos.QPErrorTarget {
				pools := g.Links()
				ts := make([]chaos.QPErrorTarget, len(pools))
				for i, cp := range pools {
					ts[i] = cp
				}
				return ts
			})
			in.RegisterCores("gw-cores@"+string(node.name), g.Core())
		}
	}
	return in
}

// crashSet is every RC pool that loses its QP state when node n reboots
// (chaos.NodeCrash on "crash@<node>"): the node's own engine and gateway
// pools, and both ends' view of every connection toward it — each other
// node's engine and gateway pools toward n, and the ingress backend's pools
// toward n.
func (c *Cluster) crashSet(n *Node) []chaos.QPErrorTarget {
	var ts []chaos.QPErrorTarget
	for _, cp := range n.engine.ConnPools() {
		ts = append(ts, cp)
	}
	if n.gw != nil {
		for _, cp := range n.gw.Links() {
			ts = append(ts, cp)
		}
	}
	for _, other := range c.nodeSeq {
		if other == n {
			continue
		}
		for _, tn := range c.tenants {
			if cp := other.engine.ConnPool(n.name, tn.Name); cp != nil {
				ts = append(ts, cp)
			}
		}
		if other.gw != nil {
			if cp := other.gw.Link(n.name); cp != nil {
				ts = append(ts, cp)
			}
		}
	}
	for _, t := range c.rdmaBE.tenantSeq {
		if cp := t.conns[string(n.name)]; cp != nil {
			ts = append(ts, cp)
		}
	}
	return ts
}

// setup establishes RC connections, starts engines, backends and function
// runtimes, then signals readiness. It starts from one same-instant event;
// the connection handshakes run concurrently (see join).
func (c *Cluster) setup() {
	switch c.cfg.System {
	case NadinoDNE, NadinoCNE:
		c.setupNadino()
	case FuyaoF, FuyaoK:
		c.setupFuyao()
	default:
		c.finishSetup()
	}
}

// finishSetup starts the TCP backend and the function runtimes and marks
// the cluster ready, once every connection pool is up.
func (c *Cluster) finishSetup() {
	if c.tcpBE != nil {
		c.tcpBE.start()
	}
	for _, f := range c.fnSeq {
		c.startFunction(f)
	}
	c.isReady = true
	if len(c.readyQ) > 0 {
		c.Eng.Immediate(c.wakeReady)
	}
}

// join starts each job from its own same-instant event, in order, and
// runs then once all of them have called their done: synchronously when
// there are none, else from one same-instant event scheduled by the last.
// Every job is one pooled handshake of the same length, so they all end at
// one instant and setup goes on from one event after them.
func (c *Cluster) join(jobs []func(done func()), then func()) {
	if len(jobs) == 0 {
		then()
		return
	}
	left := len(jobs)
	done := func() {
		if left--; left == 0 {
			c.Eng.Immediate(then)
		}
	}
	for _, job := range jobs {
		job := job
		c.Eng.Immediate(func() { job(done) })
	}
}

func (c *Cluster) setupNadino() {
	// Routes: every engine knows where every function lives, plus the
	// ingress pseudo-destination.
	for _, n := range c.nodeSeq {
		for _, f := range c.fnSeq {
			n.engine.SetRoute(f.name, f.node.name)
			if n.gw != nil {
				n.gw.Routes().Set(f.name, f.node.name)
			}
		}
		n.engine.SetRoute("ingress", ingressNodeName)
	}
	// Establish all RC pools concurrently: the DNEs bring connections up
	// in parallel at deployment, so setup costs one handshake, not one per
	// node pair or tenant.
	var jobs []func(done func())
	for _, ts := range c.tenants {
		tenant := ts.Name
		for i := 0; i < len(c.nodeSeq); i++ {
			for j := i + 1; j < len(c.nodeSeq); j++ {
				a, b := c.nodeSeq[i], c.nodeSeq[j]
				jobs = append(jobs, func(done func()) {
					rdma.EstablishPair(c.Eng, c.P, tenant,
						a.dpu.RNIC(), b.dpu.RNIC(), 8,
						a.engine.SRQ(tenant), b.engine.SRQ(tenant),
						a.engine.CQ(), b.engine.CQ(), func(cpA, cpB *rdma.ConnPool) {
							a.engine.AddConnPool(b.name, tenant, cpA)
							b.engine.AddConnPool(a.name, tenant, cpB)
							done()
						})
				})
			}
		}
		for _, n := range c.nodeSeq {
			n := n
			jobs = append(jobs, func(done func()) {
				be := c.rdmaBE.tenant(tenant)
				rdma.EstablishPair(c.Eng, c.P, tenant,
					n.dpu.RNIC(), c.rdmaBE.rnic, 8,
					n.engine.SRQ(tenant), be.srq,
					n.engine.CQ(), c.rdmaBE.cq, func(cpW, cpI *rdma.ConnPool) {
						n.engine.AddConnPool(ingressNodeName, tenant, cpW)
						be.conns[string(n.name)] = cpI
						done()
					})
			})
		}
	}
	// Inter-gateway QP pools come up alongside: one pool per node pair,
	// shared by all tenants (the landing window, not the QP, is per-tenant).
	if c.cfg.Gateways {
		for i := 0; i < len(c.nodeSeq); i++ {
			for j := i + 1; j < len(c.nodeSeq); j++ {
				a, b := c.nodeSeq[i], c.nodeSeq[j]
				if a.gw == nil || b.gw == nil {
					continue
				}
				jobs = append(jobs, func(done func()) { gateway.Connect(c.Eng, a.gw, b.gw, 4, done) })
			}
		}
	}
	c.join(jobs, func() {
		for _, n := range c.nodeSeq {
			n.engine.Start()
			if n.gw != nil {
				n.gw.Start()
			}
		}
		c.rdmaBE.start()
		c.finishSetup()
	})
}

// startFunction starts the function's receivers and handlers, each from
// one same-instant event in that order, at setup or when the autoscaler
// boots an instance.
func (c *Cluster) startFunction(f *Function) {
	if f.port != nil {
		c.startReceiver(f, rxPort)
	}
	if f.localIn != nil {
		c.startReceiver(f, rxShm)
	}
	if f.tcpIn != nil {
		c.startReceiver(f, rxTCP)
	}
	for i := 0; i < f.spec.Workers; i++ {
		c.startHandler(f)
	}
}

// OnReady runs fn in engine context once cluster setup (QP establishment)
// has finished: at once if it already has, else in registration order as
// setup completes, each from its own event.
func (c *Cluster) OnReady(fn func()) {
	if c.isReady {
		fn()
		return
	}
	c.readyQ = append(c.readyQ, fn)
}

// wakeReady runs the oldest OnReady continuation, scheduling the next
// one's event first, as each released waiter of a ready queue woke the
// next before going on.
func (c *Cluster) wakeReady() {
	fn := c.readyQ[0]
	c.readyQ = c.readyQ[1:]
	if len(c.readyQ) > 0 {
		c.Eng.Immediate(c.wakeReady)
	}
	fn()
}

// SubmitChain issues one external request for chain through the ingress.
// reply is invoked (engine context) when the response reaches the client.
func (c *Cluster) SubmitChain(chain string, client int, reply func(ingress.Response)) {
	c.SubmitChainSpec(chain, client, 0, 0, reply)
}

// SubmitChainSpec is SubmitChain with per-request speculation overrides:
// clone > 0 overrides the gateway policy's clone factor, hedge > 0 forces a
// hedged retry with that deadline floor (trace replays carry both).
func (c *Cluster) SubmitChainSpec(chain string, client int, clone int, hedge time.Duration, reply func(ingress.Response)) {
	spec, ok := c.chains[chain]
	if !ok {
		panic(fmt.Sprintf("core: unknown chain %q", chain))
	}
	now := c.Eng.Now()
	tr := c.tracer.StartRequest("chain/" + chain)
	c.gw.Submit(ingress.Request{
		Client: client, Chain: chain,
		Bytes: spec.ReqBytes, RespBytes: spec.RespBytes,
		Stamp: now,
		Trace: tr,
		Clone: clone,
		Hedge: hedge,
		Reply: func(r ingress.Response) {
			c.Completed.Inc(1)
			c.ChainLatency[chain].Observe(c.Eng.Now() - r.Stamp)
			tr.Finish()
			if reply != nil {
				reply(r)
			}
		},
	})
}
