// Package params centralizes every cost constant in the NADINO simulation.
//
// Each value is calibrated against a measurement reported in the paper
// (quoted next to the constant) or against well-known hardware figures for
// the testbed (BlueField-2 DPU, ConnectX-6 RNIC, 200 Gbps fabric, Xeon Gold
// 6148 hosts). Absolute values are best-effort; the experiments assert the
// paper's *shapes* — orderings, ratios, crossovers — which are robust to
// moderate miscalibration because they emerge from queueing structure.
package params

import "time"

// Params holds all tunable model constants. Zero value is not usable;
// start from Default() and override per experiment.
type Params struct {
	// ---- Processor speeds (relative to the reference x86 host core) ----

	// HostCoreSpeed is the Xeon Gold 6148 reference core (3.7 GHz max).
	HostCoreSpeed float64
	// DPUNetSpeed is a BlueField-2 ARM A72 core's relative speed on the
	// only work the DPU's cores run, the network engine's verbs and
	// descriptor handling (doorbells, CQE handling, 16 B descriptor
	// shuffling): it is MMIO- and memory-bound, so the gap to x86 is small
	// — Fig. 6 shows "the performance overhead incurred by executing RDMA
	// primitives directly on the wimpy DPU cores is minimal".
	DPUNetSpeed float64

	// ---- RDMA fabric (ConnectX-6 RNICs, 200 Gbps switch) ----

	// FabricBandwidth is the link rate between RNICs.
	FabricBandwidth float64 // bytes/second
	// FabricPropagation is switch + wire latency one way.
	FabricPropagation time.Duration
	// RNICPerWR is RNIC processing per work request (fetch WQE, build
	// packets, generate CQE).
	RNICPerWR time.Duration
	// RNICDMAPerOp and RNICDMAPerByte model the RNIC's host-memory DMA
	// (PCIe). The per-byte figure is an effective rate calibrated so that a
	// 4 KB two-sided echo costs ~11.6 us RTT vs ~8.4 us at 64 B (Fig. 12).
	RNICDMAPerOp   time.Duration
	RNICDMAPerByte float64 // ns per byte
	// VerbsPostCost is the software cost of posting a WR / polling a CQE
	// (reference-core time; scaled up on the wimpy DPU cores).
	VerbsPostCost time.Duration
	// RecvMatchCost is the receiver-side RNIC cost of consuming an RQ entry
	// (the extra work two-sided ops do over one-sided).
	RecvMatchCost time.Duration
	// RNRRetryDelay is the retransmission backoff when a two-sided send
	// arrives with no posted receive buffer.
	RNRRetryDelay time.Duration
	// RetransmitTimeout is the RC transport's ack timeout: an unacked WR
	// is retransmitted after this long (link loss recovery).
	RetransmitTimeout time.Duration
	// TransportRetries is how many retransmissions RC attempts before the
	// QP transitions to the error state.
	TransportRetries int
	// QPSetupTime: "connection setup time is non-negligible (of the order
	// of tens of milliseconds)" (§3.3).
	QPSetupTime time.Duration
	// QPActivateTime is the cost of re-activating a shadow (inactive) QP.
	QPActivateTime time.Duration
	// NICCacheActiveQPs is how many active QPs the RNIC's ICM cache holds
	// before thrashing; NICCacheMissPenalty is the per-WR penalty on miss.
	NICCacheActiveQPs   int
	NICCacheMissPenalty time.Duration
	// NICMTTEntries is the RNIC's memory-translation-table cache size in
	// page entries; registering more pages than this makes every WR pay a
	// translation-miss share (NICMTTMissPenalty). Hugepages keep pools
	// within the cache ("hugepage memory ... helps reduce the memory
	// footprint of the Memory Translation Table", §3.4, [93]).
	NICMTTEntries     int
	NICMTTMissPenalty time.Duration
	// OneSidedPollInterval is how often a FaRM-style receiver scans its
	// ring for one-sided write arrivals; OneSidedPollCost is the CPU cost
	// per scan (§4.1.2: FUYAO-style receivers burn a core polling).
	OneSidedPollInterval time.Duration
	OneSidedPollCost     time.Duration
	// CASLatency is the round-trip cost of a one-sided atomic (used by the
	// OWDL distributed-lock variant).
	CASLatency time.Duration
	// FuyaoEngineExtra is FUYAO's per-message engine overhead beyond the
	// generic TX stage: one-sided semantics leave credit management,
	// remote-slot bookkeeping and completion tracking entirely in software
	// on the CPU engine. Calibrated against Table 2 (FUYAO-F ~3.5ms at 20
	// clients => a ~25-30us serial component per hop across engine and
	// poller).
	FuyaoEngineExtra time.Duration
	// FuyaoPollInterval is FUYAO's receiver scan period: its poller walks
	// per-sender rings across all tenants, so detection is coarser than a
	// dedicated FaRM poller.
	FuyaoPollInterval time.Duration

	// ---- Memory system ----

	// MemcpyPerByteCached / MemcpyPerByteCold model the receiver-side copy
	// of the OWRC variants. "OWRC-Best" enjoys cache residency; the
	// "OWRC-Worst" variant flushes the TLB, forcing main-memory access
	// (§4.1.2).
	MemcpyPerByteCached float64 // ns per byte
	MemcpyPerByteCold   float64 // ns per byte
	MemcpyBase          time.Duration
	// HugepageSize is 2 MB: "We use hugepage memory (2MB size each)" (§3.4).
	HugepageSize int

	// ---- DPU SoC (BlueField-2) ----

	// SoCDMAPerOp: "only 2.6us for 64B DMA read" (§4.1.1, citing [95]).
	SoCDMAPerOp time.Duration
	// SoCDMAPerByte models the SoC DMA engine's poor bandwidth ("we find
	// [it] to be unfortunately very slow", §2.1) — ~3 GB/s effective.
	SoCDMAPerByte float64 // ns per byte

	// ---- DOCA Comch (DPU <-> host descriptor channel, Fig. 9) ----

	// ComchSendCost is the sender-side software cost of queueing a 16 B
	// descriptor.
	ComchSendCost time.Duration
	// ComchEDeliver is PCIe delivery latency for the event variant;
	// ComchEWakeup is the receiver's epoll wakeup cost (event-driven).
	ComchEDeliver time.Duration
	ComchEWakeup  time.Duration
	// ComchPDeliver is the polled variant's ring delivery latency.
	ComchPDeliver time.Duration
	// ComchPPerEndpoint is the progress-engine cost the DNE pays per
	// monitored endpoint per processed message: DOCA's "busy" polling is
	// internally an epoll_wait, so it scales with endpoints and overloads
	// beyond ~6 functions (§3.5.4).
	ComchPPerEndpoint time.Duration

	// ---- Intra-node IPC ----

	// SKMsgSendCost / SKMsgDeliver / SKMsgWakeup model eBPF SK_MSG
	// descriptor handoff between local sockets (§3.5.3).
	SKMsgSendCost time.Duration
	SKMsgDeliver  time.Duration
	SKMsgWakeup   time.Duration
	// SKMsgInterruptBase is the per-message interrupt/softirq/wakeup cost
	// charged to a CPU-hosted network engine (CNE) receiving SK_MSG
	// descriptors (the DNE's Comch input is hardware-polled and pays none
	// of this); it inflates with instantaneous backlog (interrupt
	// pressure), which is what throttles the CNE at high concurrency
	// (§4.3).
	SKMsgInterruptBase time.Duration
	// SKMsgInterruptSlope scales the backlog-dependent part: cost grows by
	// Slope per pending message (capped at SKMsgInterruptCap). The cap is
	// deliberately several times the base: a single CNE fronting many
	// functions suffers wakeup storms and softirq pressure approaching
	// receive livelock [Mogul-Ramakrishnan], which is what lets the DPU
	// engine (hardware-polled Comch input, no interrupts) pull 1.3-1.8x
	// ahead at high concurrency (§4.3).
	SKMsgInterruptSlope time.Duration
	SKMsgInterruptCap   time.Duration
	// LoopbackTCPRTT is the kernel TCP round trip used as the Fig. 9
	// baseline channel; LoopbackTCPCost is per-message CPU.
	LoopbackTCPRTT  time.Duration
	LoopbackTCPCost time.Duration
	// SemTokenCost is the cost of a sem_post/sem_wait ownership handoff.
	SemTokenCost time.Duration

	// ---- TCP/IP + HTTP transport cost models ----

	// KernelTCPPerMsg is per-message kernel-stack CPU (syscalls, copies,
	// protocol, interrupt handling); KernelTCPPerByte covers copies;
	// KernelTCPLatency is the added one-way delivery latency
	// (interrupt-driven). Calibrated so a kernel NGINX proxy lands ~11x
	// below NADINO's ingress (Fig. 13).
	KernelTCPPerMsg  time.Duration
	KernelTCPPerByte float64 // ns per byte
	KernelTCPLatency time.Duration
	// FStackPerMsg / FStackPerByte / FStackLatency: DPDK F-stack userspace
	// TCP (busy-polled, cheaper, low latency).
	FStackPerMsg  time.Duration
	FStackPerByte float64 // ns per byte
	FStackLatency time.Duration
	// HTTPParseCost is NGINX-grade HTTP request processing.
	HTTPParseCost time.Duration
	// ProxyUpstreamOverhead is the per-request cost a TCP-proxying ingress
	// pays beyond raw stack traversals: upstream connection management,
	// epoll bookkeeping, and NGINX proxy-module buffering. NADINO's early
	// transport conversion eliminates it — only the payload crosses into
	// the cluster, over RDMA (§3.6).
	ProxyUpstreamOverhead time.Duration
	// ExtNetOneWay is client <-> ingress Ethernet latency.
	ExtNetOneWay time.Duration

	// ---- DNE / CNE engine ----

	// DNETxCost / DNERxCost are the per-descriptor engine costs of the TX
	// stage (routing lookup, least-congested RC pick, WR build) and RX
	// stage (CQE handling, RBR lookup, descriptor forward), in
	// reference-core time (§3.2).
	DNETxCost time.Duration
	DNERxCost time.Duration
	// DNEExtraPerMsg is an optional artificial per-message load used by
	// experiments that cap DNE throughput (Fig. 15 configures the DNE "to
	// sustain a maximum throughput of approximately 110K RPS").
	DNEExtraPerMsg time.Duration

	// ---- Ingress gateway ----

	// IngressScaleUpUtil / IngressScaleDownUtil: "reaches 60%, the master
	// process spawns a new worker ... drops below 30%, terminates one"
	// (§3.6).
	IngressScaleUpUtil   float64
	IngressScaleDownUtil float64
	// IngressScaleCheckEvery is the autoscaler sampling period.
	IngressScaleCheckEvery time.Duration
	// IngressRestartPause: "the scaling procedure triggers a brief service
	// interruption due to the restart of the worker processes" (Fig. 14).
	IngressRestartPause time.Duration
	// IngressMaxWorkers bounds horizontal scaling.
	IngressMaxWorkers int

	// ---- Inter-gateway fabric (multi-node tier, Palladium-style) ----

	// GwForwardCost is the gateway-core cost of forwarding one descriptor:
	// route-table lookup, landing-slot pick and one-sided WR build. It runs
	// on the DPU's network cores (DPUNetSpeed) — the forwarding decision
	// stays off the wimpy general-purpose cores (λ-NIC).
	GwForwardCost time.Duration
	// GwDeliverCost is the gateway-core cost of ingesting one landed write:
	// slot bookkeeping, restock and local hand-off (or transit re-forward).
	GwDeliverCost time.Duration
	// GwFailoverInterval is the route-maintenance period: each gateway
	// refreshes its next-hop table from live fabric state, repairs errored
	// inter-gateway QPs and retries starved slot restocks this often.
	GwFailoverInterval time.Duration
	// GwWindow is the default number of landing slots a gateway pre-posts
	// per resident tenant — the one-sided receive window peers write into.
	GwWindow int
	// GwMaxHops bounds transit forwarding (TTL): a descriptor relayed more
	// than this many times is dropped, fencing transient routing loops.
	GwMaxHops int
}

// Default returns the calibrated baseline parameter set.
func Default() *Params {
	return &Params{
		HostCoreSpeed: 1.0,
		DPUNetSpeed:   0.80, // verbs/descriptor work: near-par (Fig. 6)

		FabricBandwidth:   25e9, // 200 Gbps
		FabricPropagation: 500 * time.Nanosecond,
		RNICPerWR:         600 * time.Nanosecond,
		RNICDMAPerOp:      300 * time.Nanosecond,
		RNICDMAPerByte:    0.125, // ns/B => 8 GB/s effective across PCIe+memory
		VerbsPostCost:     400 * time.Nanosecond,
		RecvMatchCost:     200 * time.Nanosecond,
		RNRRetryDelay:     20 * time.Microsecond,
		RetransmitTimeout: 500 * time.Microsecond,
		TransportRetries:  7,
		QPSetupTime:       25 * time.Millisecond,
		QPActivateTime:    80 * time.Microsecond,

		NICCacheActiveQPs:   256,
		NICCacheMissPenalty: 1500 * time.Nanosecond,
		NICMTTEntries:       4096,
		NICMTTMissPenalty:   900 * time.Nanosecond,

		OneSidedPollInterval: 2 * time.Microsecond,
		OneSidedPollCost:     300 * time.Nanosecond,
		CASLatency:           4 * time.Microsecond,
		FuyaoEngineExtra:     8 * time.Microsecond,
		FuyaoPollInterval:    5 * time.Microsecond,

		MemcpyPerByteCached: 0.60, // ns/B, cache-resident copy
		MemcpyPerByteCold:   1.00, // ns/B, TLB-flushed main-memory copy
		MemcpyBase:          250 * time.Nanosecond,
		HugepageSize:        2 << 20,

		SoCDMAPerOp:   2600 * time.Nanosecond, // 2.6us 64B DMA read [95]
		SoCDMAPerByte: 0.33,                   // ns/B, ~3 GB/s effective SoC DMA bandwidth

		ComchSendCost:     300 * time.Nanosecond,
		ComchEDeliver:     3900 * time.Nanosecond,
		ComchEWakeup:      1400 * time.Nanosecond,
		ComchPDeliver:     300 * time.Nanosecond,
		ComchPPerEndpoint: 150 * time.Nanosecond,

		SKMsgSendCost:       400 * time.Nanosecond,
		SKMsgDeliver:        1000 * time.Nanosecond,
		SKMsgWakeup:         1300 * time.Nanosecond,
		SKMsgInterruptBase:  4500 * time.Nanosecond,
		SKMsgInterruptSlope: 150 * time.Nanosecond,
		SKMsgInterruptCap:   8000 * time.Nanosecond,
		LoopbackTCPRTT:      18 * time.Microsecond,
		LoopbackTCPCost:     4 * time.Microsecond,
		SemTokenCost:        250 * time.Nanosecond,

		KernelTCPPerMsg:       30 * time.Microsecond,
		KernelTCPPerByte:      0.60,
		KernelTCPLatency:      14 * time.Microsecond,
		FStackPerMsg:          2500 * time.Nanosecond,
		FStackPerByte:         0.25,
		FStackLatency:         1500 * time.Nanosecond,
		HTTPParseCost:         2 * time.Microsecond,
		ProxyUpstreamOverhead: 14 * time.Microsecond,
		ExtNetOneWay:          8 * time.Microsecond,

		DNETxCost:      1100 * time.Nanosecond,
		DNERxCost:      900 * time.Nanosecond,
		DNEExtraPerMsg: 0,

		IngressScaleUpUtil:     0.60,
		IngressScaleDownUtil:   0.30,
		IngressScaleCheckEvery: 500 * time.Millisecond,
		IngressRestartPause:    150 * time.Millisecond,
		IngressMaxWorkers:      16,

		GwForwardCost:      800 * time.Nanosecond,
		GwDeliverCost:      600 * time.Nanosecond,
		GwFailoverInterval: 200 * time.Microsecond,
		GwWindow:           64,
		GwMaxHops:          8,
	}
}

// Clone returns a copy that experiments can mutate freely.
func (p *Params) Clone() *Params {
	q := *p
	return &q
}

// Bytes converts a per-byte cost in ns/B into a duration for n bytes.
func Bytes(nsPerByte float64, n int) time.Duration {
	return time.Duration(nsPerByte * float64(n))
}
