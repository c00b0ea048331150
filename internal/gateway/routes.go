package gateway

import (
	"nadino/internal/fabric"
)

// RouteTable is a gateway's versioned view of the cluster: which node owns
// each function (set by placement) and which next hop currently reaches
// each peer node (rebuilt deterministically from live fabric state every
// params.GwFailoverInterval, and on every placement change). The version
// counter bumps exactly when either mapping changes, so telemetry can watch
// failover converge.
type RouteTable struct {
	self    fabric.NodeID
	peers   []fabric.NodeID // stable wiring order: the failover scan order
	fns     map[string]fabric.NodeID
	fnSeq   []string
	hops    map[fabric.NodeID]fabric.NodeID
	version uint64
}

// NewRouteTable returns an empty table for a gateway on self.
func NewRouteTable(self fabric.NodeID) *RouteTable {
	return &RouteTable{
		self: self,
		fns:  make(map[string]fabric.NodeID),
		hops: make(map[fabric.NodeID]fabric.NodeID),
	}
}

// AddPeer registers a reachable peer gateway. Peer order is wiring order
// and determines the (deterministic) failover scan order.
func (rt *RouteTable) AddPeer(n fabric.NodeID) {
	if _, ok := rt.hops[n]; ok {
		return
	}
	rt.peers = append(rt.peers, n)
	rt.hops[n] = n
}

// Set records that fn lives on node, bumping the version on change.
func (rt *RouteTable) Set(fn string, node fabric.NodeID) {
	if cur, ok := rt.fns[fn]; ok {
		if cur != node {
			rt.fns[fn] = node
			rt.version++
		}
		return
	}
	rt.fns[fn] = node
	rt.fnSeq = append(rt.fnSeq, fn)
	rt.version++
}

// NodeOf reports the node owning fn.
func (rt *RouteTable) NodeOf(fn string) (fabric.NodeID, bool) {
	n, ok := rt.fns[fn]
	return n, ok
}

// Functions returns the known function IDs in registration order.
func (rt *RouteTable) Functions() []string { return rt.fnSeq }

// NextHop reports the current next hop toward dst: dst itself on a healthy
// fabric, a one-bounce relay around a cut link otherwise. Unknown nodes
// route direct.
func (rt *RouteTable) NextHop(dst fabric.NodeID) fabric.NodeID {
	if hop, ok := rt.hops[dst]; ok {
		return hop
	}
	return dst
}

// Refresh rebuilds the next-hop table from live fabric state and reports
// whether anything changed (bumping the version if so). For each peer dst:
// direct if the self->dst link is up and dst is alive; otherwise the first
// peer M (in wiring order) that is alive with self->M and M->dst up — a
// deterministic one-bounce detour; otherwise dst anyway, leaving short
// outages to the RC transport's retransmission.
func (rt *RouteTable) Refresh(net *fabric.Network) bool {
	changed := false
	for _, dst := range rt.peers {
		hop := dst
		if net.LinkDown(rt.self, dst) || net.Down(dst) {
			for _, m := range rt.peers {
				if m == dst || net.Down(m) || net.LinkDown(rt.self, m) || net.LinkDown(m, dst) {
					continue
				}
				hop = m
				break
			}
		}
		if rt.hops[dst] != hop {
			rt.hops[dst] = hop
			changed = true
		}
	}
	if changed {
		rt.version++
	}
	return changed
}

// Version reports the table's change counter.
func (rt *RouteTable) Version() uint64 { return rt.version }
