// Package core assembles the full NADINO system — worker nodes with DPUs
// and network engines, tenant memory pools, the unified I/O library that
// transparently routes intra-node (shared memory) and inter-node (RDMA)
// transfers (§3.5), and the cluster-wide ingress — together with the
// baseline serverless data planes it is evaluated against (§4.3): NADINO
// (CNE), FUYAO-F/K, SPRIGHT, NightCore, and Junction.
package core

import (
	"time"

	"nadino/internal/ingress"
	"nadino/internal/mempool"
)

// System identifies a serverless data plane design.
type System int

// The systems compared in §4.3.
const (
	// NadinoDNE is NADINO with the network engine offloaded to the DPU.
	NadinoDNE System = iota
	// NadinoCNE runs NADINO's engine on a host CPU core with SK_MSG input
	// (the apples-to-apples offloading comparison).
	NadinoCNE
	// FuyaoF is FUYAO (one-sided RDMA writes with receiver-side copy and
	// separate intra/inter-node pools) behind the F-stack ingress.
	FuyaoF
	// FuyaoK is FUYAO behind the kernel ingress.
	FuyaoK
	// Spright uses shared memory locally and kernel TCP across nodes,
	// behind the F-stack ingress.
	Spright
	// NightCore runs all functions on a single node with shared-memory
	// pipes and its built-in kernel-based gateway.
	NightCore
	// Junction uses a library-OS kernel-bypass TCP stack for every
	// inter-function hop (local and remote) plus one dedicated scheduler
	// core per node, behind the F-stack ingress.
	Junction
)

func (s System) String() string {
	switch s {
	case NadinoDNE:
		return "NADINO (DNE)"
	case NadinoCNE:
		return "NADINO (CNE)"
	case FuyaoF:
		return "FUYAO-F"
	case FuyaoK:
		return "FUYAO-K"
	case Spright:
		return "SPRIGHT"
	case NightCore:
		return "NightCore"
	case Junction:
		return "Junction"
	}
	return "?"
}

// Systems lists every supported data plane, in the paper's display order.
func Systems() []System {
	return []System{NadinoDNE, NadinoCNE, FuyaoF, FuyaoK, Junction, Spright, NightCore}
}

// IngressKind reports the cluster ingress each system uses (§4.3 setup).
func (s System) IngressKind() ingress.Kind {
	switch s {
	case NadinoDNE, NadinoCNE:
		return ingress.Nadino
	case FuyaoK, NightCore:
		return ingress.KIngress
	default:
		return ingress.FIngress
	}
}

// SingleNode reports whether the system cannot span nodes (NightCore).
func (s System) SingleNode() bool { return s == NightCore }

// FunctionSpec declares one serverless function.
type FunctionSpec struct {
	Name string
	// Tenant owns the function (empty = the cluster's default tenant).
	// Functions of the same tenant share memory; cross-tenant messages
	// pay an explicit sidecar copy (§3.1).
	Tenant string
	// Node places the function (ignored for single-node systems).
	Node string
	// Service is the application compute per invocation.
	Service time.Duration
	// Workers is the function's internal concurrency (request handlers
	// sharing its dedicated core). Defaults to 8.
	Workers int
	// ColdStart is the container boot penalty a handler pays when invoked
	// cold. Zero disables cold starts entirely.
	ColdStart time.Duration
	// KeepWarm is how long an idle handler stays warm (SPRIGHT's
	// keep-warm policy, §3.7). Only meaningful with ColdStart > 0; zero
	// means handlers always start cold when ColdStart is set.
	KeepWarm time.Duration
	// MaxScale caps the function's instance count (default 1 = no
	// autoscaling). With MaxScale > 1 the cluster autoscaler adds and
	// drains instances by observed concurrency.
	MaxScale int
	// TargetConcurrency is the per-instance concurrency the autoscaler
	// aims at (default Workers).
	TargetConcurrency int
}

// Call is one downstream invocation in a chain's call tree.
type Call struct {
	Callee    string
	ReqBytes  int
	RespBytes int
	// Async marks the call as part of a parallel fan-out: consecutive
	// async calls are issued together and joined before the next
	// synchronous step — the DAG-style dataflow the I/O library layers on
	// top of its messaging primitives (§3.5).
	Async bool
	// Calls are the nested invocations the callee performs.
	Calls []Call
}

// Exchanges counts the data exchanges (request + response messages) a call
// tree induces, the metric the paper quotes ("more than 11 data exchanges").
func Exchanges(calls []Call) int {
	n := 0
	for _, c := range calls {
		n += 2 + Exchanges(c.Calls)
	}
	return n
}

// ChainSpec is one function chain exposed through the ingress.
type ChainSpec struct {
	Name string
	// Tenant owning the chain (empty = default tenant).
	Tenant    string
	Entry     string
	ReqBytes  int
	RespBytes int
	Calls     []Call // calls the entry function makes, in order
}

// msgKind tags descriptors flowing through the data plane.
type msgKind int

const (
	kindRequest msgKind = iota
	kindResponse
)

// callCtx is a caller's rendezvous for one outstanding invocation. The
// first of its reply or a drop notice for its request or reply settles it
// (done); failed marks the drop. Whatever arrives after that — a duplicate
// reply, or the reply to a call already failed — is recycled by the
// receiver instead of parked.
type callCtx struct {
	done, failed bool
	resp         mempool.Buffer // the reply's buffer, once a reply settled it
	// waiter is the caller parked on the call, woken through one event
	// when the call settles; nil while the caller has not parked.
	waiter *callOp
}

// settle resolves the call with the reply in resp (or, failed, as lost)
// and wakes a parked caller.
func (cc *callCtx) settle(resp mempool.Buffer, failed bool) {
	cc.done, cc.failed, cc.resp = true, failed, resp
	if op := cc.waiter; op != nil {
		cc.waiter = nil
		op.c.Eng.Immediate(op.repliedFn)
	}
}

// fail settles the call as lost and wakes its caller.
func (cc *callCtx) fail() {
	if cc.done {
		return
	}
	cc.settle(mempool.Buffer{}, true)
}

// reqCtx travels with a request descriptor and tells the invoked function
// what to do and where to respond.
type reqCtx struct {
	Chain     string
	Calls     []Call // nested calls this invocation must perform
	RespBytes int
	ReplyTo   string   // function to respond to; "" when ingress-originated
	Call      *callCtx // caller's rendezvous (function-to-function calls)
	// IngressDone delivers the final response to the ingress gateway.
	IngressDone func(ingress.Response)
	Stamp       time.Duration
	// Spec is the speculation cancellation probe for cloned requests
	// (speculate.Group.Killed); nil on unspeculated requests and on
	// nested calls — a clone that starts executing runs its call tree to
	// completion, so a mid-chain kill can never strand a waiting caller.
	Spec func() bool
}

// msgCtx is the Ctx payload carried by every descriptor in the cluster.
// It holds its message's descriptor record too, so a message costs one
// allocation.
type msgCtx struct {
	Kind msgKind
	Req  *reqCtx  // kindRequest
	Call *callCtx // kindResponse: the rendezvous the waiting caller parks on
	// IngressDone set on responses headed back to the ingress.
	IngressDone func(ingress.Response)
	Stamp       time.Duration
	// msg is the message's write-once descriptor record; its Ctx points
	// back to this msgCtx.
	msg mempool.Msg
}

// record fills mc's descriptor record and returns it.
func (mc *msgCtx) record(src, dst string, spec func() bool) *mempool.Msg {
	mc.msg = mempool.Msg{Src: src, Dst: dst, Ctx: mc, Spec: spec}
	return &mc.msg
}
