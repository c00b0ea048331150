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

// functionWorker is one handler goroutine of a function: it serves requests
// from the inbox, performs the chain's nested calls through the unified I/O
// library, and responds upstream. With ColdStart configured, a handler that
// has been idle past its KeepWarm window boots cold before serving.
func (c *Cluster) functionWorker(pr *sim.Proc, f *Function) {
	lastServed := time.Duration(-1)
	for {
		d := f.inbox.Get(pr)
		tr := d.Trace
		tr.EndStage(trace.StageFnQueue)
		mc, ok := d.Ctx.(*msgCtx)
		if !ok || mc.Kind != kindRequest || mc.Req == nil {
			panic(fmt.Sprintf("core: %s received malformed request descriptor", f.name))
		}
		if mc.Req.Spec != nil && mc.Req.Spec() {
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
		if f.spec.ColdStart > 0 {
			idle := lastServed < 0 || pr.Now()-lastServed > f.spec.KeepWarm
			if idle {
				// Container boot: wall-clock delay, not core time.
				sp := tr.Begin(trace.StageFnColdstart, f.name)
				pr.Sleep(f.spec.ColdStart)
				sp.End()
				c.coldStarts++
			}
		}
		rc := mc.Req
		// The request payload has been consumed; recycle its buffer.
		if err := f.node.pool(f.tenant).Put(d.Buf, f.owner); err != nil {
			panic(fmt.Sprintf("core: %s request buffer recycle: %v", f.name, err))
		}
		// Application compute.
		sp := tr.Begin(trace.StageFnExec, f.name)
		c.execApp(pr, f, f.spec.Service)
		sp.End()
		// Nested invocations: consecutive async calls fan out in parallel
		// and join; synchronous calls run in order.
		failed := false
		calls := rc.Calls
		for len(calls) > 0 && !failed {
			group := 1
			if calls[0].Async {
				for group < len(calls) && calls[group].Async {
					group++
				}
			}
			if err := c.invokeGroup(pr, f, calls[:group], rc.Chain, tr); err != nil {
				failed = true
			}
			calls = calls[group:]
		}
		lastServed = pr.Now()
		if !failed {
			c.respond(pr, f, rc, tr)
		}
		f.inflight--
	}
}

// invokeGroup performs one or more invocations; multi-call groups fan out
// concurrently and join before returning.
func (c *Cluster) invokeGroup(pr *sim.Proc, f *Function, calls []Call, chain string, tr *trace.Req) error {
	if len(calls) == 1 {
		return c.invoke(pr, f, calls[0], chain, tr)
	}
	join := sim.NewQueue[error](c.Eng, 0)
	for _, call := range calls {
		call := call
		c.Eng.Spawn(f.name+"/fanout", func(sub *sim.Proc) {
			err := c.invoke(sub, f, call, chain, tr)
			join.TryPut(err)
		})
	}
	var firstErr error
	for range calls {
		if err := join.Get(pr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// execApp charges application compute (tracked separately from data-plane
// CPU for the §4.3.1 efficiency accounting).
func (c *Cluster) execApp(pr *sim.Proc, f *Function, cost time.Duration) {
	f.core.Exec(pr, cost)
	c.appBusy += cost
}

// invoke performs one synchronous downstream call and waits for the
// response. The unified I/O library (send) picks the transport.
func (c *Cluster) invoke(pr *sim.Proc, f *Function, call Call, chain string, tr *trace.Req) error {
	buf, err := c.getBufferRetry(pr, f.node.pool(f.tenant), f.owner)
	if err != nil {
		return err
	}
	cc := &callCtx{q: sim.NewQueue[mempool.Descriptor](c.Eng, 0)}
	d := mempool.Descriptor{
		Tenant: f.tenant, Buf: buf, Len: call.ReqBytes,
		Src: f.name, Dst: call.Callee,
		Ctx: &msgCtx{Kind: kindRequest, Req: &reqCtx{
			Chain: chain, Calls: call.Calls, RespBytes: call.RespBytes,
			ReplyTo: f.name, Call: cc,
		}},
		Trace: tr,
	}
	if err := c.send(pr, f, call.Callee, d); err != nil {
		return err
	}
	resp := cc.q.Get(pr)
	if cc.failed {
		return fmt.Errorf("core: %s call to %s dropped in the data plane", f.name, call.Callee)
	}
	// Consume and recycle the response buffer (the sidecar has already
	// normalized cross-tenant responses into f's own pool).
	if err := f.node.pool(f.tenant).Put(resp.Buf, f.owner); err != nil {
		panic(fmt.Sprintf("core: %s response buffer recycle: %v", f.name, err))
	}
	return nil
}

// respond sends the invocation result upstream: to the calling function, or
// back to the ingress gateway for entry functions.
func (c *Cluster) respond(pr *sim.Proc, f *Function, rc *reqCtx, tr *trace.Req) {
	if rc.IngressDone != nil {
		c.respondIngress(pr, f, rc, tr)
		return
	}
	buf, err := c.getBufferRetry(pr, f.node.pool(f.tenant), f.owner)
	if err != nil {
		return
	}
	d := mempool.Descriptor{
		Tenant: f.tenant, Buf: buf, Len: rc.RespBytes,
		Src: f.name, Dst: rc.ReplyTo,
		Ctx:   &msgCtx{Kind: kindResponse, Call: rc.Call},
		Trace: tr,
	}
	if err := c.send(pr, f, rc.ReplyTo, d); err != nil {
		_ = f.node.pool(f.tenant).Put(buf, f.owner)
	}
}

// respondIngress returns an entry function's result to the gateway.
func (c *Cluster) respondIngress(pr *sim.Proc, f *Function, rc *reqCtx, tr *trace.Req) {
	if f.port != nil {
		// NADINO: the response descriptor travels over RDMA to the
		// ingress node, zero copy all the way.
		buf, err := c.getBufferRetry(pr, f.node.pool(f.tenant), f.owner)
		if err != nil {
			return
		}
		d := mempool.Descriptor{
			Tenant: f.tenant, Buf: buf, Len: rc.RespBytes,
			Src: f.name, Dst: "ingress",
			Ctx:   &msgCtx{Kind: kindResponse, IngressDone: rc.IngressDone, Stamp: rc.Stamp},
			Trace: tr,
			// The response leg keeps the probe: a loser's response is killed
			// at the DNE TX gate, while the winner's response always passes
			// it before the group resolves at the ingress boundary.
			Spec: rc.Spec,
		}
		if err := f.port.Send(pr, f.core, d); err != nil {
			_ = f.node.pool(f.tenant).Put(buf, f.owner)
		}
		return
	}
	// Deferred conversion: the worker terminates TCP outbound too.
	st := c.workerStack()
	sp := tr.Begin(st.TraceStage(), f.name)
	f.core.Exec(pr, transport.SendCost(c.P, st, rc.RespBytes))
	sp.End()
	done := rc.IngressDone
	bytes := rc.RespBytes
	stamp := rc.Stamp
	t0 := c.Eng.Now()
	c.Eng.After(c.tcpTransit(st), func() {
		tr.Record(trace.StageTransit, "wire", t0, c.Eng.Now())
		done(ingressResponse(bytes, stamp))
	})
}

// tcpTransit is the one-way cluster-internal delivery latency over TCP.
func (c *Cluster) tcpTransit(st transport.Stack) time.Duration {
	return transport.TransitLatency(c.P, st) + 2*time.Microsecond
}

// send is the unified I/O library (§3.5): it transparently routes a
// descriptor to its destination over intra-node shared memory or the
// system's inter-node transport.
func (c *Cluster) send(pr *sim.Proc, f *Function, dst string, d mempool.Descriptor) error {
	target := c.resolveInstance(dst)
	if target == nil {
		return fmt.Errorf("core: unknown destination function %q", dst)
	}
	d.Dst = target.name // concrete instance after load balancing
	if mc, ok := d.Ctx.(*msgCtx); ok && mc.Kind == kindRequest {
		// Count the request against the instance from routing time: the
		// autoscaler's concurrency signal must see work queued anywhere
		// along the path, not only what reached the inbox.
		target.inflight++
	}
	p := c.P
	sameNode := target.node == f.node

	pool := f.node.pool(f.tenant)
	switch c.cfg.System {
	case NadinoDNE, NadinoCNE:
		if sameNode {
			// Zero-copy shared memory: token passing + SK_MSG descriptor.
			// (Cross-tenant deliveries get their sidecar copy on the
			// receive side.)
			sp := d.Trace.Begin(trace.StageSKMsg, f.name)
			f.core.Exec(pr, p.SKMsgSendCost+p.SemTokenCost)
			sp.End()
			if err := pool.Transfer(d.Buf, f.owner, target.owner); err != nil {
				return err
			}
			target.localIn.Send(d)
			return nil
		}
		return f.port.Send(pr, f.core, d)

	case FuyaoF, FuyaoK:
		if sameNode {
			sp := d.Trace.Begin(trace.StageSKMsg, f.name)
			f.core.Exec(pr, p.SKMsgSendCost+p.SemTokenCost)
			sp.End()
			if err := pool.Transfer(d.Buf, f.owner, target.owner); err != nil {
				return err
			}
			target.localIn.Send(d)
			return nil
		}
		// Hand off to the node's FUYAO engine for a one-sided write.
		sp := d.Trace.Begin(trace.StageSKMsg, f.name)
		f.core.Exec(pr, p.SKMsgSendCost)
		sp.End()
		if err := pool.Transfer(d.Buf, f.owner, f.node.fuyao.owner); err != nil {
			return err
		}
		f.node.fuyao.submit(d, string(target.node.name))
		return nil

	case Spright, NightCore:
		if sameNode {
			sp := d.Trace.Begin(trace.StageSKMsg, f.name)
			f.core.Exec(pr, p.SKMsgSendCost+p.SemTokenCost)
			sp.End()
			if err := pool.Transfer(d.Buf, f.owner, target.owner); err != nil {
				return err
			}
			target.localIn.Send(d)
			return nil
		}
		// SPRIGHT inter-node: kernel TCP on the function cores, with the
		// payload copied through the sockets.
		sp := d.Trace.Begin(transport.Kernel.TraceStage(), f.name)
		f.core.Exec(pr, transport.SendCost(p, transport.Kernel, d.Len))
		sp.End()
		if err := pool.Put(d.Buf, f.owner); err != nil {
			return err
		}
		c.tcpShip(target, d, transport.Kernel)
		return nil

	case Junction:
		// Junction uses its kernel-bypass TCP stack for every hop, local
		// or remote; data is copied through the stack either way.
		sp := d.Trace.Begin(transport.Junction.TraceStage(), f.name)
		f.core.Exec(pr, transport.SendCost(p, transport.Junction, d.Len))
		sp.End()
		if err := pool.Put(d.Buf, f.owner); err != nil {
			return err
		}
		c.tcpShip(target, d, transport.Junction)
		return nil
	}
	return fmt.Errorf("core: unhandled system %v", c.cfg.System)
}

// tcpShip delivers a copied message to the target's socket inbox after the
// stack's transit latency.
func (c *Cluster) tcpShip(target *Function, d mempool.Descriptor, st transport.Stack) {
	m := tcpMsg{Bytes: d.Len, Src: d.Src, Ctx: d.Ctx.(*msgCtx), Trace: d.Trace}
	t0 := c.Eng.Now()
	c.Eng.After(c.tcpTransit(st), func() {
		m.Trace.Record(trace.StageTransit, "wire", t0, c.Eng.Now())
		target.tcpIn.TryPut(m)
	})
}

// deliver demultiplexes an inbound descriptor at its destination function:
// requests go to the worker inbox, responses to the waiting caller. For
// cross-tenant messages the trusted sidecar first copies the payload into
// the receiving tenant's pool and releases the foreign buffer — tenants
// never share memory (§3.1).
func (c *Cluster) deliver(pr *sim.Proc, f *Function, d mempool.Descriptor) {
	if d.Tenant != "" && d.Tenant != f.tenant {
		srcPool := f.node.pool(d.Tenant)
		sp := d.Trace.Begin(trace.StageSidecar, f.name)
		f.core.Exec(pr, c.P.MemcpyBase+params.Bytes(c.P.MemcpyPerByteCached, d.Len))
		sp.End()
		buf, err := c.getBufferRetry(pr, f.node.pool(f.tenant), f.owner)
		if err != nil {
			_ = srcPool.Put(d.Buf, f.owner)
			return
		}
		if err := srcPool.Put(d.Buf, f.owner); err != nil {
			panic(fmt.Sprintf("core: cross-tenant source recycle: %v", err))
		}
		d.Buf = buf
		d.Tenant = f.tenant
		c.crossTenantCopies++
	}
	mc, ok := d.Ctx.(*msgCtx)
	if !ok {
		panic(fmt.Sprintf("core: %s received descriptor without context", f.name))
	}
	switch mc.Kind {
	case kindRequest:
		d.Trace.BeginStage(trace.StageFnQueue, f.name)
		f.inbox.TryPut(d)
	case kindResponse:
		cc := mc.Call
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
		cc.done = true
		cc.q.TryPut(d)
	}
}

// dropped is the data plane's drop hook (engines and gateways): ctx rode a
// descriptor lost for good. If it is the request or the reply of a nested
// call, fail that call so the parked caller moves on — otherwise the
// worker would block forever. Requests and replies of ingress-originated
// invocations have no waiter in the cluster; they stay lost, accounted to
// the drop counter that fired.
func (c *Cluster) dropped(ctx any) {
	mc, ok := ctx.(*msgCtx)
	if !ok {
		return
	}
	cc := mc.Call
	if mc.Kind == kindRequest && mc.Req != nil {
		cc = mc.Req.Call
	}
	if cc != nil {
		cc.fail()
	}
}
