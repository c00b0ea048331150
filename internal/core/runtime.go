package core

import (
	"fmt"
	"time"

	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/trace"
	"nadino/internal/transport"
)

// The function runtime runs in engine context: each function's handlers,
// its receivers and every message they send are state machines whose
// block points are one event each (DESIGN §4).

// handler is one of a function's Workers request handlers (its internal
// concurrency): it serves requests from the inbox, performs the chain's
// nested calls through the unified I/O library, and responds upstream.
// With ColdStart configured, a handler that has been idle past its
// KeepWarm window boots cold before serving. Idle handlers wait in the
// inbox's getter FIFO, oldest first.
type handler struct {
	c *Cluster
	f *Function
	// lastServed is when this handler last finished a request's calls;
	// -1 until it has served one.
	lastServed time.Duration

	// The request in service; rc is nil while the handler is idle.
	reqBuf mempool.Buffer
	rc     *invocation
	tr     *trace.Req
	sp     trace.SpanRef
	calls  []Call // nested calls not yet issued
	failed bool

	// An async group's join: arms not yet joined, arms finished since the
	// handler last joined, whether one of them failed, and whether the
	// handler is parked until the next one finishes.
	pending, finished int
	groupFailed       bool
	parked            bool

	// op carries the handler's synchronous calls and its reply.
	op callOp

	nextFn, coldFn, execFn, calledFn, joinedFn, respondedFn func()
}

// startHandler adds one handler to f; it starts from one same-instant
// event.
func (c *Cluster) startHandler(f *Function) {
	h := &handler{c: c, f: f, lastServed: -1}
	h.op.init(c, f)
	h.nextFn, h.coldFn, h.execFn = h.next, h.cold, h.executed
	h.calledFn, h.joinedFn, h.respondedFn = h.called, h.joined, h.responded
	f.handlers = append(f.handlers, h)
	c.Eng.Immediate(h.nextFn)
}

// next is the top of the handler loop: take the next request, or park in
// the inbox until one arrives.
func (h *handler) next() {
	c, f := h.c, h.f
	for {
		d, ok := f.inbox.TryGet()
		if !ok {
			f.inbox.Notify(h.nextFn)
			return
		}
		tr := d.Trace
		tr.EndStage(trace.StageFnQueue)
		mc, ok := d.Msg.Ctx.(*msgCtx)
		if !ok || mc.Kind != kindRequest {
			panic(fmt.Sprintf("core: %s received malformed request descriptor", f.name))
		}
		if mc.Inv.Spec != nil && mc.Inv.Spec() {
			// A clone whose group already won elsewhere: kill it at the
			// dequeue boundary — return the buffer, skip the cold start and
			// the application work entirely.
			tr.Event(trace.StageSpecCancel, f.name)
			if err := f.node.pool(f.tenant).Put(d.Buf, f.owner); err != nil {
				panic(fmt.Sprintf("core: %s cancelled clone recycle: %v", f.name, err))
			}
			f.inflight--
			c.specFnKills++
			continue
		}
		h.reqBuf, h.rc, h.tr = d.Buf, mc.Inv, tr
		if f.spec.ColdStart > 0 && (h.lastServed < 0 || c.Eng.Now()-h.lastServed > f.spec.KeepWarm) {
			// Container boot: wall-clock delay, not core time.
			h.sp = tr.Begin(trace.StageFnColdstart, f.name)
			c.Eng.After(f.spec.ColdStart, h.coldFn)
			return
		}
		h.serve()
		return
	}
}

// cold finishes a container boot.
func (h *handler) cold() {
	h.sp.End()
	h.c.coldStarts++
	h.serve()
}

// serve recycles the consumed request payload and runs the application
// compute on the function's core.
func (h *handler) serve() {
	f := h.f
	if err := f.node.pool(f.tenant).Put(h.reqBuf, f.owner); err != nil {
		panic(fmt.Sprintf("core: %s request buffer recycle: %v", f.name, err))
	}
	h.reqBuf = mempool.Buffer{}
	h.sp = h.tr.Begin(trace.StageFnExec, f.name)
	f.core.Run(f.spec.Service, h.execFn)
}

// executed books the application compute (tracked apart from data-plane
// CPU for the §4.3.1 efficiency accounting) and starts the nested calls.
func (h *handler) executed() {
	h.c.appBusy += h.f.spec.Service
	h.sp.End()
	h.calls, h.failed = h.rc.Calls, false
	h.step()
}

// step issues the next call group: consecutive async calls fan out in
// parallel and join; synchronous calls run in order. After the last group,
// or the first that failed, the handler responds.
func (h *handler) step() {
	if len(h.calls) == 0 || h.failed {
		h.respond()
		return
	}
	calls := h.calls
	group := 1
	if calls[0].Async {
		for group < len(calls) && calls[group].Async {
			group++
		}
	}
	h.calls = calls[group:]
	if group == 1 {
		h.op.then = h.calledFn
		h.op.invoke(calls[0], h.rc.Chain, h.tr)
		return
	}
	// Fan out: each arm starts from one same-instant event, the handler
	// parks until the first finishes.
	h.pending, h.finished, h.groupFailed, h.parked = group, 0, false, true
	for _, call := range calls[:group] {
		a := h.c.getArm(h.f)
		a.h, a.call, a.chain, a.tr = h, call, h.rc.Chain, h.tr
		h.c.Eng.Immediate(a.startFn)
	}
}

// called resumes after a synchronous call.
func (h *handler) called() {
	if h.op.err != nil {
		h.failed = true
	}
	h.step()
}

// armDone joins one finished fan-out arm; the first to finish while the
// handler is parked wakes it through one event.
func (h *handler) armDone(a *callOp) {
	if a.err != nil {
		h.groupFailed = true
	}
	h.finished++
	if h.parked {
		h.parked = false
		h.c.Eng.Immediate(h.joinedFn)
	}
}

// joined takes every arm that finished since the handler last joined and
// parks again until the group is complete.
func (h *handler) joined() {
	h.pending -= h.finished
	h.finished = 0
	if h.pending > 0 {
		h.parked = true
		return
	}
	if h.groupFailed {
		h.failed = true
	}
	h.step()
}

// respond sends the invocation result upstream once the calls are done.
func (h *handler) respond() {
	h.lastServed = h.c.Eng.Now()
	if h.failed {
		// No reply will come: fail the call our own caller waits on, or
		// it parks forever one level up the chain.
		if h.rc.Call != nil {
			h.rc.Call.fail()
		}
		h.responded()
		return
	}
	h.op.then = h.respondedFn
	h.op.respond(h.rc, h.tr)
}

// responded finishes the request and goes back for the next.
func (h *handler) responded() {
	h.f.inflight--
	h.rc, h.tr, h.calls = nil, nil, nil
	h.next()
}

// callOp is one message a handler sends: a nested invocation, which then
// waits for its reply, or the handler's reply. A handler carries one for
// its synchronous calls and reply; an async group draws one pooled arm per
// call. Its block points — buffer backoff, the send cost on the function
// core, the reply wait — are one event each.
type callOp struct {
	c    *Cluster
	f    *Function
	then func() // where the owner resumes once the op is done
	err  error  // why the op failed; nil on success
	buf  bufRetry

	// Invocation: the call, its chain and trace, and the rendezvous its
	// reply settles. An arm's handler is h; nil for a handler's own op.
	call  Call
	chain string
	tr    *trace.Req
	cc    *callCtx
	h     *handler
	// Reply: the invocation answered.
	rc *invocation

	// The message being sent (see send) and its open span.
	d      mempool.Descriptor
	sp     trace.SpanRef
	target *Function
	via    sendVia
	st     transport.Stack // viaTCP
	sent   func()          // where send resumes once the cost is paid

	startFn, invokeBufFn, invokeSentFn, repliedFn, armDoneFn func()
	replyBufFn, replySentFn, tcpSentFn, sentFn               func()
}

// init binds the op's continuations once.
func (op *callOp) init(c *Cluster, f *Function) {
	op.c, op.f = c, f
	op.buf.eng = c.Eng
	op.buf.retryFn = op.buf.retry
	op.startFn, op.armDoneFn, op.sentFn = op.start, op.armDone, op.sendDone
	op.invokeBufFn, op.invokeSentFn, op.repliedFn = op.invokeBuf, op.invokeSent, op.replied
	op.replyBufFn, op.replySentFn, op.tcpSentFn = op.replyBuf, op.replySent, op.tcpSent
}

// getArm draws a pooled fan-out arm for f.
func (c *Cluster) getArm(f *Function) *callOp {
	var a *callOp
	if n := len(c.freeArms); n > 0 {
		a = c.freeArms[n-1]
		c.freeArms = c.freeArms[:n-1]
	} else {
		a = &callOp{}
		a.init(c, f)
	}
	a.f, a.then = f, a.armDoneFn
	return a
}

// start runs a fan-out arm's invocation.
func (op *callOp) start() { op.invoke(op.call, op.chain, op.tr) }

// armDone hands a finished arm to its handler's join and recycles it.
func (op *callOp) armDone() {
	h := op.h
	h.armDone(op)
	op.h, op.call, op.chain, op.err = nil, Call{}, "", nil
	op.c.freeArms = append(op.c.freeArms, op)
}

// finish hands the op back to its owner.
func (op *callOp) finish() {
	op.rc, op.tr = nil, nil
	op.then()
}

// invoke performs one downstream call and waits for its response. The
// unified I/O library (send) picks the transport.
func (op *callOp) invoke(call Call, chain string, tr *trace.Req) {
	op.call, op.chain, op.tr, op.err = call, chain, tr, nil
	op.buf.then = op.invokeBufFn
	if op.buf.get(op.f.node.pool(op.f.tenant), op.f.owner) {
		op.invokeBuf()
	}
}

func (op *callOp) invokeBuf() {
	if op.buf.err != nil {
		op.err = op.buf.err
		op.finish()
		return
	}
	f, call := op.f, op.call
	inv := &invocation{reqCtx: reqCtx{
		Chain: op.chain, Calls: call.Calls, RespBytes: call.RespBytes,
		ReplyTo: f.name,
	}}
	inv.Call = &inv.call
	op.cc = inv.Call
	d := mempool.Descriptor{
		Tenant: f.tenant, Buf: op.buf.buf, Len: int32(call.ReqBytes),
		Trace: op.tr,
		Msg:   inv.request(f.name, call.Callee, nil),
	}
	op.sent = op.invokeSentFn
	if op.send(call.Callee, d) {
		op.invokeSent()
	}
}

// invokeSent parks on the call until its reply or drop notice settles it;
// a call already settled goes on without an event.
func (op *callOp) invokeSent() {
	if op.err != nil {
		op.cc = nil
		op.finish()
		return
	}
	if !op.cc.done {
		op.cc.waiter = op
		return
	}
	op.replied()
}

// replied consumes and recycles the response buffer (the sidecar has
// already normalized cross-tenant responses into f's own pool).
func (op *callOp) replied() {
	f, cc := op.f, op.cc
	op.cc = nil
	if cc.failed {
		op.err = fmt.Errorf("core: %s call to %s dropped in the data plane", f.name, op.call.Callee)
		op.finish()
		return
	}
	if err := f.node.pool(f.tenant).Put(cc.resp, f.owner); err != nil {
		panic(fmt.Sprintf("core: %s response buffer recycle: %v", f.name, err))
	}
	op.finish()
}

// respond sends the invocation result upstream: to the calling function, or
// back to the ingress gateway for entry functions.
func (op *callOp) respond(rc *invocation, tr *trace.Req) {
	op.rc, op.tr, op.err = rc, tr, nil
	f := op.f
	if rc.Ingress != nil && f.port == nil {
		// Deferred conversion: the worker terminates TCP outbound too.
		st := op.c.workerStack()
		op.sp = tr.Begin(st.TraceStage(), f.name)
		f.core.Run(transport.SendCost(op.c.P, st, rc.RespBytes), op.tcpSentFn)
		return
	}
	op.buf.then = op.replyBufFn
	if op.buf.get(f.node.pool(f.tenant), f.owner) {
		op.replyBuf()
	}
}

// replyBuf sends the response: to the caller through the unified I/O
// library, or, for an entry function on NADINO, to the ingress node over
// the function's port — zero copy all the way. A reply to a caller that
// cannot be sent fails the caller's call, so the caller does not park
// forever; one to the ingress is lost with its request, as the ingress
// has no waiter for it in the cluster.
func (op *callOp) replyBuf() {
	rc, f := op.rc, op.f
	if op.buf.err != nil {
		if rc.Call != nil {
			rc.Call.fail()
		}
		op.finish()
		return
	}
	op.sent = op.replySentFn
	mc := rc.reply()
	if rc.Ingress != nil {
		d := mempool.Descriptor{
			Tenant: f.tenant, Buf: op.buf.buf, Len: int32(rc.RespBytes),
			Trace: op.tr,
			// The response leg keeps the probe: a loser's response is
			// killed at the DNE TX gate, while the winner's response always
			// passes it before the group resolves at the ingress boundary.
			Msg: mc.record(f.name, "ingress", rc.Spec),
		}
		if op.sendPort(d) {
			op.replySent()
		}
		return
	}
	d := mempool.Descriptor{
		Tenant: f.tenant, Buf: op.buf.buf, Len: int32(rc.RespBytes),
		Trace: op.tr,
		Msg:   mc.record(f.name, rc.ReplyTo, nil),
	}
	if op.send(rc.ReplyTo, d) {
		op.replySent()
	}
}

func (op *callOp) replySent() {
	if op.err != nil {
		_ = op.f.node.pool(op.f.tenant).Put(op.buf.buf, op.f.owner)
		if op.rc.Call != nil {
			op.rc.Call.fail()
		}
	}
	op.finish()
}

// tcpSent ships a deferred-conversion response back to the gateway once
// the worker paid its TCP send.
func (op *callOp) tcpSent() {
	op.sp.End()
	c, rc, tr := op.c, op.rc, op.tr
	x, bytes := rc.Ingress, rc.RespBytes
	t0 := c.Eng.Now()
	c.Eng.After(c.tcpTransit(c.workerStack()), func() {
		tr.Record(trace.StageTransit, "wire", t0, c.Eng.Now())
		x.Done(ingressResponse(bytes, x.Stamp))
	})
	op.finish()
}

// tcpTransit is the one-way cluster-internal delivery latency over TCP.
func (c *Cluster) tcpTransit(st transport.Stack) time.Duration {
	return transport.TransitLatency(c.P, st) + 2*time.Microsecond
}

// sendVia is how a send finishes once its cost is paid.
type sendVia int

const (
	viaShm   sendVia = iota // shared memory: buffer transfer + SK_MSG descriptor
	viaPort                 // the function's port to the network engine
	viaFuyao                // hand-off to the node's FUYAO engine
	viaTCP                  // a copy through a TCP stack
)

// send is the unified I/O library (§3.5): it transparently routes a
// descriptor to its destination over intra-node shared memory or the
// system's inter-node transport. The sending function's core pays the
// transport's send cost through one Run, then the descriptor leaves and
// the op resumes at sent. send reports true when it failed before any cost
// was paid (err says why).
func (op *callOp) send(dst string, d mempool.Descriptor) bool {
	c, f := op.c, op.f
	target := c.resolveInstance(dst)
	if target == nil {
		op.err = fmt.Errorf("core: unknown destination function %q", dst)
		return true
	}
	// The concrete instance after load balancing: the record's last write,
	// made before the descriptor's first hand-off.
	d.Msg.Dst = target.name
	if mc, ok := d.Msg.Ctx.(*msgCtx); ok && mc.Kind == kindRequest {
		// Count the request against the instance from routing time: the
		// autoscaler's concurrency signal must see work queued anywhere
		// along the path, not only what reached the inbox.
		target.inflight++
	}
	p := c.P
	sameNode := target.node == f.node
	var cost time.Duration
	switch c.cfg.System {
	case NadinoDNE, NadinoCNE:
		if !sameNode {
			return op.sendPort(d)
		}
		// Zero-copy shared memory: token passing + SK_MSG descriptor.
		// (Cross-tenant deliveries get their sidecar copy on the receive
		// side.)
		op.via, cost = viaShm, p.SKMsgSendCost+p.SemTokenCost
		op.sp = d.Trace.Begin(trace.StageSKMsg, f.name)
	case FuyaoF, FuyaoK:
		if sameNode {
			op.via, cost = viaShm, p.SKMsgSendCost+p.SemTokenCost
		} else {
			// Hand off to the node's FUYAO engine for a one-sided write.
			op.via, cost = viaFuyao, p.SKMsgSendCost
		}
		op.sp = d.Trace.Begin(trace.StageSKMsg, f.name)
	case Spright, NightCore:
		if sameNode {
			op.via, cost = viaShm, p.SKMsgSendCost+p.SemTokenCost
			op.sp = d.Trace.Begin(trace.StageSKMsg, f.name)
			break
		}
		// SPRIGHT inter-node: kernel TCP on the function cores, with the
		// payload copied through the sockets.
		op.via, op.st = viaTCP, transport.Kernel
		cost = transport.SendCost(p, transport.Kernel, int(d.Len))
		op.sp = d.Trace.Begin(transport.Kernel.TraceStage(), f.name)
	case Junction:
		// Junction uses its kernel-bypass TCP stack for every hop, local
		// or remote; data is copied through the stack either way.
		op.via, op.st = viaTCP, transport.Junction
		cost = transport.SendCost(p, transport.Junction, int(d.Len))
		op.sp = d.Trace.Begin(transport.Junction.TraceStage(), f.name)
	default:
		op.err = fmt.Errorf("core: unhandled system %v", c.cfg.System)
		return true
	}
	op.d, op.target = d, target
	f.core.Run(cost, op.sentFn)
	return false
}

// sendPort ships d to the node's network engine over the function's port,
// the inter-node transport of the NADINO systems; it reports true when d
// never left (err says why).
func (op *callOp) sendPort(d mempool.Descriptor) bool {
	cost, sp, err := op.f.port.SendBegin(&d)
	if err != nil {
		op.err = err
		return true
	}
	op.via, op.sp, op.d = viaPort, sp, d
	op.f.core.Run(cost, op.sentFn)
	return false
}

// sendDone lets the descriptor leave once the send cost is paid.
func (op *callOp) sendDone() {
	c, f, d, target := op.c, op.f, op.d, op.target
	op.d, op.target = mempool.Descriptor{}, nil
	pool := f.node.pool(f.tenant)
	switch op.via {
	case viaPort:
		f.port.SendEnd(d, op.sp)
	case viaShm:
		op.sp.End()
		if err := pool.Transfer(d.Buf, f.owner, target.owner); err != nil {
			op.err = err
			break
		}
		target.localIn.Send(d)
	case viaFuyao:
		op.sp.End()
		if err := pool.Transfer(d.Buf, f.owner, f.node.fuyao.owner); err != nil {
			op.err = err
			break
		}
		f.node.fuyao.submit(d)
	case viaTCP:
		op.sp.End()
		if err := pool.Put(d.Buf, f.owner); err != nil {
			op.err = err
			break
		}
		c.tcpShip(target, d, op.st)
	}
	op.sent()
}

// tcpShip delivers a copied message to the target's socket inbox after the
// stack's transit latency.
func (c *Cluster) tcpShip(target *Function, d mempool.Descriptor, st transport.Stack) {
	m := tcpMsg{Bytes: int(d.Len), Ctx: d.Msg.Ctx.(*msgCtx), Trace: d.Trace}
	t0 := c.Eng.Now()
	c.Eng.After(c.tcpTransit(st), func() {
		m.Trace.Record(trace.StageTransit, "wire", t0, c.Eng.Now())
		target.tcpIn.TryPut(m)
	})
}

// rxKind is which inbound channel a receiver serves.
type rxKind int

const (
	rxPort rxKind = iota // the function's port from the network engine
	rxShm                // the shared-memory SK_MSG inbox
	rxTCP                // the socket inbox
)

// receiver is one of a function's inbound channels — port-rx, shm-rx or
// tcp-rx — as a state machine: it takes each arriving message, pays the
// wakeup or receive cost on the function core, and delivers it.
type receiver struct {
	c    *Cluster
	f    *Function
	kind rxKind
	st   transport.Stack // rxTCP: the worker's TCP stack

	d   mempool.Descriptor // in service
	m   tcpMsg             // rxTCP: in service
	sp  trace.SpanRef
	buf bufRetry

	loopFn, recvdFn, tcpRecvdFn, tcpBufFn, copiedFn, copyBufFn func()
}

// startReceiver adds a receiver of kind to f; it starts from one
// same-instant event.
func (c *Cluster) startReceiver(f *Function, kind rxKind) {
	r := &receiver{c: c, f: f, kind: kind, st: c.workerStack()}
	r.buf.eng, r.buf.retryFn = c.Eng, r.buf.retry
	r.loopFn, r.recvdFn, r.copiedFn, r.copyBufFn = r.loop, r.recvd, r.copied, r.copyBuf
	r.tcpRecvdFn, r.tcpBufFn = r.tcpRecvd, r.tcpBuf
	c.Eng.Immediate(r.loopFn)
}

// loop is the top of the receive loop: take the next message, or park on
// the channel until one arrives.
func (r *receiver) loop() {
	c, f := r.c, r.f
	switch r.kind {
	case rxPort:
		d, ok := f.port.TryRecv()
		if !ok {
			f.port.NotifyRecv(r.loopFn)
			return
		}
		sp, cost := f.port.Received(&d)
		r.d, r.sp = d, sp
		f.core.Run(cost, r.recvdFn)
	case rxShm:
		d, ok := f.localIn.TryRecv()
		if !ok {
			f.localIn.Notify(r.loopFn)
			return
		}
		r.d = d
		r.sp = d.Trace.Begin(trace.StageFnDeliver, f.name)
		f.core.Run(c.P.SKMsgWakeup+c.P.SemTokenCost, r.recvdFn)
	case rxTCP:
		m, ok := f.tcpIn.TryGet()
		if !ok {
			f.tcpIn.Notify(r.loopFn)
			return
		}
		r.m = m
		r.sp = m.Trace.Begin(r.st.TraceStage(), f.name)
		f.core.Run(transport.RecvCost(c.P, r.st, m.Bytes), r.tcpRecvdFn)
	}
}

// recvd delivers a descriptor once its wakeup is paid.
func (r *receiver) recvd() {
	r.sp.End()
	d := r.d
	r.d = mempool.Descriptor{}
	if r.deliver(d) {
		r.loop()
	}
}

// tcpRecvd copies a socket message out into a fresh local buffer. A
// message the pool cannot take is lost, and so is the call it carries.
func (r *receiver) tcpRecvd() {
	r.sp.End()
	r.buf.then = r.tcpBufFn
	if r.buf.get(r.f.node.pool(r.f.tenant), r.f.owner) {
		r.tcpBuf()
	}
}

func (r *receiver) tcpBuf() {
	m, f := r.m, r.f
	r.m = tcpMsg{}
	if r.buf.err != nil {
		r.c.dropped(m.Ctx)
		r.loop()
		return
	}
	d := mempool.Descriptor{
		Tenant: f.tenant, Buf: r.buf.buf, Len: int32(m.Bytes),
		Trace: m.Trace, Msg: &m.Ctx.msg,
	}
	if r.deliver(d) {
		r.loop()
	}
}

// deliver demultiplexes an inbound descriptor at its destination function.
// For cross-tenant messages the trusted sidecar first copies the payload
// into the receiving tenant's pool and releases the foreign buffer —
// tenants never share memory (§3.1). It reports whether it finished at
// once; a copy finishes later and resumes the loop itself.
func (r *receiver) deliver(d mempool.Descriptor) bool {
	f := r.f
	if d.Tenant != "" && d.Tenant != f.tenant {
		r.d = d
		r.sp = d.Trace.Begin(trace.StageSidecar, f.name)
		f.core.Run(r.c.P.MemcpyBase+params.Bytes(r.c.P.MemcpyPerByteCached, int(d.Len)), r.copiedFn)
		return false
	}
	r.c.demux(f, d)
	return true
}

// copied lands the sidecar copy in a buffer of the receiving tenant.
func (r *receiver) copied() {
	r.sp.End()
	r.buf.then = r.copyBufFn
	if r.buf.get(r.f.node.pool(r.f.tenant), r.f.owner) {
		r.copyBuf()
	}
}

// copyBuf swaps the foreign buffer for the local copy. A copy the pool
// cannot take loses the message, and with it the call it carries.
func (r *receiver) copyBuf() {
	c, f, d := r.c, r.f, r.d
	r.d = mempool.Descriptor{}
	srcPool := f.node.pool(d.Tenant)
	if r.buf.err != nil {
		_ = srcPool.Put(d.Buf, f.owner)
		c.dropped(d.Msg.Ctx)
		r.loop()
		return
	}
	if err := srcPool.Put(d.Buf, f.owner); err != nil {
		panic(fmt.Sprintf("core: cross-tenant source recycle: %v", err))
	}
	d.Buf = r.buf.buf
	d.Tenant = f.tenant
	c.crossTenantCopies++
	c.demux(f, d)
	r.loop()
}

// demux hands a delivered descriptor to f: requests go to the handler
// inbox, responses to the waiting caller.
func (c *Cluster) demux(f *Function, d mempool.Descriptor) {
	mc, ok := d.Msg.Ctx.(*msgCtx)
	if !ok {
		panic(fmt.Sprintf("core: %s received descriptor without context", f.name))
	}
	switch mc.Kind {
	case kindRequest:
		d.Trace.BeginStage(trace.StageFnQueue, f.name)
		f.inbox.TryPut(d)
	case kindResponse:
		cc := mc.Inv.Call
		if cc == nil {
			panic(fmt.Sprintf("core: %s received response with no caller", f.name))
		}
		if cc.done {
			// A duplicate reply, or one to a call already failed by a drop:
			// nobody waits for it.
			if err := f.node.pool(f.tenant).Put(d.Buf, f.owner); err != nil {
				panic(fmt.Sprintf("core: %s late response recycle: %v", f.name, err))
			}
			return
		}
		cc.settle(d.Buf, false)
	}
}

// dropped is the data plane's drop hook (engines and gateways), and the
// runtime's own for messages it cannot deliver: ctx rode a descriptor lost
// for good. If it is the request or the reply of a nested call, fail that
// call so the parked caller moves on — otherwise the handler would wait
// forever. Requests and replies of ingress-originated invocations have no
// waiter in the cluster; they stay lost, accounted to the drop counter
// that fired.
func (c *Cluster) dropped(ctx any) {
	mc, ok := ctx.(*msgCtx)
	if !ok {
		return
	}
	if cc := mc.Inv.Call; cc != nil {
		cc.fail()
	}
}

// Buffer backoff: an allocation that finds the pool empty retries every
// bufRetryEvery, and gives up after bufRetryLimit retries.
const (
	bufRetryEvery = 10 * time.Microsecond
	bufRetryLimit = 1001
)

// bufRetry allocates a pool buffer with bounded backoff under pool
// pressure: one try at once, then one every bufRetryEvery, each retry one
// After, giving up with the pool's error after bufRetryLimit retries.
type bufRetry struct {
	eng     *sim.Engine
	pool    *mempool.Pool
	owner   mempool.Owner
	attempt int
	buf     mempool.Buffer
	err     error
	then    func() // where the owner resumes after a retried allocation
	retryFn func()
}

// get tries to allocate for owner from pool. It reports true when the
// result (buf, or err after the last retry) is ready at once; otherwise it
// retries and calls then once the result is ready.
func (b *bufRetry) get(pool *mempool.Pool, owner mempool.Owner) bool {
	b.pool, b.owner, b.attempt = pool, owner, 0
	return b.try()
}

func (b *bufRetry) try() bool {
	buf, err := b.pool.Get(b.owner)
	if err == nil {
		b.buf, b.err = buf, nil
		return true
	}
	if b.attempt >= bufRetryLimit {
		b.buf, b.err = mempool.Buffer{}, err
		return true
	}
	b.attempt++
	b.eng.After(bufRetryEvery, b.retryFn)
	return false
}

func (b *bufRetry) retry() {
	if b.try() {
		b.then()
	}
}
