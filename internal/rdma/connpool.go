package rdma

import (
	"nadino/internal/flightrec"
	"nadino/internal/params"
	"nadino/internal/sim"
)

// ConnPool manages a node's established RC connections toward one peer node
// for one tenant (§3.3): connections are set up once (amortizing the
// tens-of-milliseconds QP handshake), kept in a pool, and categorized into
// active and inactive ("shadow") QPs. Inactive QPs consume no RNIC cache;
// the pool activates and deactivates them in proportion to load without any
// cross-node state synchronization.
type ConnPool struct {
	eng    *sim.Engine
	p      *params.Params
	Tenant string

	conns []*QP // local ends toward the peer
	rnic  *RNIC // the local RNIC every conn shares
	// errorsSeen is rnic.qpErrors at this pool's last Repair scan.
	errorsSeen uint64

	// minActive is the floor of active connections kept warm.
	minActive int
	// congestion is the per-QP outstanding depth beyond which the pool
	// activates another shadow QP.
	congestion int

	activations   uint64
	deactivations uint64
	repairs       uint64

	// Flight recorder hook (optional): forced errors and repairs land in
	// the ring under this pool's interned actor id.
	rec      *flightrec.Recorder
	recActor uint16
}

// SetFlightRecorder routes this pool's QP error/repair events into r under
// actor (e.g. "qp:amber@nodeA>nodeB"); nil detaches.
func (cp *ConnPool) SetFlightRecorder(r *flightrec.Recorder, actor string) {
	cp.rec = r
	cp.recActor = r.Actor(actor)
}

// EstablishPair creates n RC connections between RNICs a and b for tenant
// after one pooled setup handshake (params.QPSetupTime) — connection setup
// is pipelined across the batch, as a real DNE would do at startup — and
// passes the two pools (a's view and b's view) to done, from the one event
// that ends the handshake.
func EstablishPair(eng *sim.Engine, p *params.Params, tenant string, a, b *RNIC, n int,
	srqA, srqB *SRQ, cqA, cqB *CQ, done func(poolA, poolB *ConnPool)) {
	if n <= 0 {
		panic("rdma: connection pool must hold at least one QP")
	}
	eng.After(p.QPSetupTime, func() {
		poolA := &ConnPool{eng: eng, p: p, Tenant: tenant, rnic: a, minActive: 1, congestion: 8}
		poolB := &ConnPool{eng: eng, p: p, Tenant: tenant, rnic: b, minActive: 1, congestion: 8}
		for i := 0; i < n; i++ {
			qa, qb := Connect(a, b, tenant, srqA, srqB, cqA, cqB)
			if i >= poolA.minActive {
				qa.deactivate()
			}
			if i >= poolB.minActive {
				qb.deactivate()
			}
			poolA.conns = append(poolA.conns, qa)
			poolB.conns = append(poolB.conns, qb)
		}
		done(poolA, poolB)
	})
}

// Pick returns the least-congested active connection, activating a shadow
// QP in the background when every active connection is congested. Errored
// QPs are skipped (Repair brings them back). It never blocks: the caller
// transmits on the returned QP immediately.
func (cp *ConnPool) Pick() *QP {
	var best *QP
	var idle *QP
	for _, qp := range cp.conns {
		if qp.errored {
			continue
		}
		if qp.active {
			if best == nil || qp.outstanding < best.outstanding {
				best = qp
			}
		} else if idle == nil {
			idle = qp
		}
	}
	if best == nil {
		if idle == nil {
			// Every connection errored: hand back the first while Repair
			// works; its posts will flush with errors and be retried.
			return cp.conns[0]
		}
		// All shadows: activate the first synchronously (costs show up as
		// QPActivateTime before it can carry traffic).
		idle.active = true
		cp.activations++
		return idle
	}
	if best.outstanding >= cp.congestion && idle != nil {
		cp.activate(idle)
	}
	return best
}

// activate brings a shadow QP back after the activation delay.
func (cp *ConnPool) activate(qp *QP) {
	cp.activations++
	qp.active = true      // reserve so concurrent Picks don't double-activate
	qp.outstanding += 1e6 // poisoned until ready
	cp.eng.After(cp.p.QPActivateTime, func() {
		qp.outstanding -= 1e6
	})
}

// Shrink deactivates idle connections above the floor. The DNE core thread
// calls this periodically; it is the "deactivates RC connections in
// proportion to the load" half of §3.3.
func (cp *ConnPool) Shrink() int {
	active := 0
	for _, qp := range cp.conns {
		if qp.active {
			active++
		}
	}
	n := 0
	for _, qp := range cp.conns {
		if active-n <= cp.minActive {
			break
		}
		if qp.active && qp.outstanding == 0 {
			qp.deactivate()
			cp.deactivations++
			n++
		}
	}
	return n
}

// Repair re-handshakes errored connections in the background: each costs
// one QPSetupTime before rejoining the pool. Call it periodically (the DNE
// core thread does). Returns how many repairs were started.
func (cp *ConnPool) Repair() int {
	// A scan marks every errored QP repairing, and a repair clears both
	// flags together, so a QP errored and not yet repairing must have
	// errored since the last scan. The local RNIC counts those errors:
	// while its count is unchanged there is none.
	if cp.rnic.qpErrors == cp.errorsSeen {
		return 0
	}
	cp.errorsSeen = cp.rnic.qpErrors
	n := 0
	for _, qp := range cp.conns {
		if !qp.errored || qp.repairing {
			continue
		}
		qp.repairing = true
		n++
		cp.repairs++
		q := qp
		cp.eng.After(cp.p.QPSetupTime, func() {
			q.Reset()
			q.repairing = false
		})
	}
	if n > 0 && cp.rec != nil {
		cp.rec.Record(flightrec.KindQPRepair, cp.recActor, int64(n), 0)
	}
	return n
}

// ForceError drives up to n non-errored connections into the error state
// (n <= 0 means all) and reports how many were errored. Injection hook for
// internal/chaos; Repair recovers them on its normal cadence.
func (cp *ConnPool) ForceError(n int) int {
	if n <= 0 {
		n = len(cp.conns)
	}
	hit := 0
	for _, qp := range cp.conns {
		if hit >= n {
			break
		}
		if qp.errored {
			continue
		}
		qp.ForceError()
		hit++
	}
	if hit > 0 && cp.rec != nil {
		cp.rec.Record(flightrec.KindQPError, cp.recActor, int64(hit), 0)
	}
	return hit
}

// ErroredCount reports connections currently in the error state.
func (cp *ConnPool) ErroredCount() int {
	n := 0
	for _, qp := range cp.conns {
		if qp.errored {
			n++
		}
	}
	return n
}

// Repairs reports lifetime connection re-establishments.
func (cp *ConnPool) Repairs() uint64 { return cp.repairs }

// ActiveCount reports currently active QPs.
func (cp *ConnPool) ActiveCount() int {
	n := 0
	for _, qp := range cp.conns {
		if qp.active {
			n++
		}
	}
	return n
}

// Size reports total pooled connections.
func (cp *ConnPool) Size() int { return len(cp.conns) }

// Activations reports lifetime shadow-QP activations.
func (cp *ConnPool) Activations() uint64 { return cp.activations }

// Conns exposes the pooled QPs (tests and stats).
func (cp *ConnPool) Conns() []*QP { return cp.conns }
