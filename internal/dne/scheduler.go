// Package dne implements NADINO's DPU Network Engine (§3.2-§3.3): a
// run-to-completion reverse proxy that owns the node's RDMA resources on
// behalf of untrusted tenant functions, schedules inter-node transfers
// across tenants (Deficit Weighted Round Robin), keeps receive queues
// replenished per tenant, and bridges descriptors between host functions
// and the RNIC over DOCA Comch. The same engine can be hosted on a CPU core
// (the paper's CNE apples-to-apples baseline) where it ingests descriptors
// over SK_MSG and pays interrupt costs instead.
package dne

import (
	"nadino/internal/mempool"
	"nadino/internal/ring"
)

// SchedulerKind selects the tenant scheduling policy.
type SchedulerKind int

// Scheduling policies compared in Fig. 15.
const (
	// SchedDWRR is NADINO's Deficit Weighted Round Robin scheduler:
	// backlogged tenants share RNIC bandwidth in proportion to weights.
	SchedDWRR SchedulerKind = iota
	// SchedFCFS is the baseline without multi-tenancy handling: one FIFO,
	// first-come-first-served, bursty tenants starve steady ones.
	SchedFCFS
)

// Scheduler orders tenant traffic for the TX stage.
type Scheduler interface {
	// Enqueue adds a descriptor to its tenant's queue.
	Enqueue(tenant string, d mempool.Descriptor)
	// Next removes the next descriptor to transmit.
	Next() (mempool.Descriptor, bool)
	// Pending reports queued descriptors across tenants.
	Pending() int
}

// fcfs is a single FIFO across all tenants.
type fcfs struct {
	q ring.Deque[mempool.Descriptor]
}

// NewFCFS returns the no-isolation baseline scheduler.
func NewFCFS() Scheduler { return &fcfs{} }

func (s *fcfs) Enqueue(_ string, d mempool.Descriptor) { s.q.PushBack(d) }

func (s *fcfs) Next() (mempool.Descriptor, bool) {
	if s.q.Len() == 0 {
		return mempool.Descriptor{}, false
	}
	return s.q.PopFront(), true
}

func (s *fcfs) Pending() int { return s.q.Len() }

// dwrrQueue is one tenant's state in the DWRR scheduler.
type dwrrQueue struct {
	tenant  string
	weight  int
	deficit int
	granted bool // quantum granted for the current turn
	q       ring.Deque[mempool.Descriptor]
}

// DWRR implements Shreedhar-Varghese deficit weighted round robin over
// tenant queues, with byte-based quanta so large payloads don't let a
// tenant exceed its share.
type DWRR struct {
	quantumUnit int // bytes of quantum per unit weight per round
	queues      map[string]*dwrrQueue
	active      ring.Deque[*dwrrQueue] // round-robin ring of backlogged tenants
	pending     int

	// Single-entry Enqueue memo: per-tenant workloads enqueue runs of the
	// same tenant, so remembering the last queue skips the map lookup.
	memoTenant string
	memoQ      *dwrrQueue
}

// NewDWRR returns NADINO's weighted fair scheduler. quantumUnit is the
// byte quantum granted per unit of weight per round; it should be at least
// the largest message size divided by the smallest weight to keep per-round
// progress positive.
func NewDWRR(quantumUnit int) *DWRR {
	return &DWRR{quantumUnit: quantumUnit, queues: make(map[string]*dwrrQueue)}
}

// SetWeight registers or updates a tenant's weight (default 1).
func (s *DWRR) SetWeight(tenant string, weight int) {
	if weight <= 0 {
		panic("dne: non-positive DWRR weight")
	}
	q := s.queue(tenant)
	q.weight = weight
}

func (s *DWRR) queue(tenant string) *dwrrQueue {
	q, ok := s.queues[tenant]
	if !ok {
		q = &dwrrQueue{tenant: tenant, weight: 1}
		s.queues[tenant] = q
	}
	return q
}

// Enqueue implements Scheduler.
func (s *DWRR) Enqueue(tenant string, d mempool.Descriptor) {
	q := s.memoQ
	if q == nil || tenant != s.memoTenant {
		q = s.queue(tenant)
		s.memoTenant, s.memoQ = tenant, q
	}
	if q.q.Len() == 0 {
		q.deficit = 0
		s.active.PushBack(q)
	}
	q.q.PushBack(d)
	s.pending++
}

// msgBytes is the scheduling cost of a descriptor: its payload plus header
// overhead, floored so zero-length control messages still consume quantum.
func msgBytes(d mempool.Descriptor) int {
	n := d.Len + 64
	if n < 64 {
		n = 64
	}
	return n
}

// Next implements Scheduler: serve the head of the active ring. Each
// backlogged tenant's turn grants one quantum; when the deficit can't cover
// the head-of-line message the turn ends and the tenant rotates to the back
// keeping its deficit (Shreedhar-Varghese).
func (s *DWRR) Next() (mempool.Descriptor, bool) {
	for s.active.Len() > 0 {
		q := s.active.Front()
		if q.q.Len() == 0 {
			// Exhausted queue leaves the ring and forfeits its deficit.
			s.active.PopFront()
			q.deficit = 0
			q.granted = false
			continue
		}
		if !q.granted {
			q.deficit += q.weight * s.quantumUnit
			q.granted = true
		}
		need := msgBytes(q.q.Front())
		if q.deficit < need {
			// Turn over: rotate, keep the deficit for the next round.
			q.granted = false
			s.active.PushBack(s.active.PopFront())
			continue
		}
		d := q.q.PopFront()
		q.deficit -= need
		s.pending--
		if q.q.Len() == 0 {
			s.active.PopFront()
			q.deficit = 0
			q.granted = false
		}
		return d, true
	}
	return mempool.Descriptor{}, false
}

// Pending implements Scheduler.
func (s *DWRR) Pending() int { return s.pending }
