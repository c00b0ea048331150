package ingress

import (
	"fmt"
	"time"

	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/transport"
)

// EchoBackendConfig models the worker node serving the ingress
// microbenchmarks (§4.1.3): an HTTP echo function reached either over RDMA
// (NADINO — payload already converted at the edge) or over TCP that the
// worker must terminate again (deferred conversion).
type EchoBackendConfig struct {
	// UseRDMA selects NADINO's path: descriptors arrive via DNE + Comch,
	// no TCP termination on the worker.
	UseRDMA bool
	// WorkerStack is the TCP stack the worker terminates with when
	// UseRDMA is false (the paper uses F-stack on the worker).
	WorkerStack transport.Stack
	// Transit is the one-way ingress<->worker delivery latency.
	Transit time.Duration
	// Service is the echo function's application service time.
	Service time.Duration
	// Concurrency is how many requests the worker node serves in parallel
	// (function instances, one core each).
	Concurrency int
}

// EchoBackend implements Backend with a modeled worker node.
type EchoBackend struct {
	eng *sim.Engine
	p   *params.Params
	cfg EchoBackendConfig
	q   *sim.Queue[echoJob]
}

type echoJob struct {
	req  Request
	done func(Response)
}

// echoServer is one function instance on its own core, as an engine
// callback state machine: take a job (parking on the queue while it is
// empty), serve it on the core, send the response back, repeat.
type echoServer struct {
	b               *EchoBackend
	core            *sim.Processor
	job             echoJob
	serveFn, doneFn func()
}

// NewEchoBackend starts the worker-node servers, each from one
// same-instant event.
func NewEchoBackend(eng *sim.Engine, p *params.Params, cfg EchoBackendConfig) *EchoBackend {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	b := &EchoBackend{eng: eng, p: p, cfg: cfg, q: sim.NewQueue[echoJob](eng, 0)}
	for i := 0; i < cfg.Concurrency; i++ {
		s := &echoServer{b: b, core: sim.NewProcessor(eng, fmt.Sprintf("echo-backend/%d", i), p.HostCoreSpeed)}
		s.serveFn, s.doneFn = s.serve, s.done
		eng.Immediate(s.serveFn)
	}
	return b
}

// Forward implements Backend.
func (b *EchoBackend) Forward(req Request, done func(Response)) {
	b.eng.After(b.cfg.Transit, func() {
		b.q.TryPut(echoJob{req: req, done: done})
	})
}

// serve takes the next job and runs it on the server's core.
func (s *echoServer) serve() {
	b, p := s.b, s.b.p
	j, ok := b.q.TryGet()
	if !ok {
		b.q.Notify(s.serveFn)
		return
	}
	s.job = j
	if b.cfg.UseRDMA {
		// DNE delivered a descriptor; the function wakes via Comch,
		// serves, and hands the response descriptor back.
		s.core.Run(p.ComchEWakeup+b.cfg.Service+p.ComchSendCost, s.doneFn)
		return
	}
	// Deferred conversion: the worker terminates TCP and parses HTTP
	// before the function runs, then does it again outbound.
	s.core.Run(transport.RecvCost(p, b.cfg.WorkerStack, j.req.Bytes)+
		transport.HTTPCost(p)+
		b.cfg.Service+
		transport.SendCost(p, b.cfg.WorkerStack, j.req.RespBytes), s.doneFn)
}

// done sends the response back over the transit and takes the next job.
func (s *echoServer) done() {
	req, done := s.job.req, s.job.done
	s.job = echoJob{}
	s.b.eng.After(s.b.cfg.Transit, func() {
		done(Response{ID: req.ID, Bytes: req.RespBytes, Stamp: req.Stamp})
	})
	s.serve()
}

// DefaultEchoBackend builds the standard Fig. 13 backend for an ingress
// kind: RDMA transit for NADINO, an F-stack-terminating worker for the
// deferred designs.
func DefaultEchoBackend(eng *sim.Engine, p *params.Params, kind Kind, concurrency int) *EchoBackend {
	cfg := EchoBackendConfig{
		Service:     5 * time.Microsecond,
		Concurrency: concurrency,
	}
	if kind == Nadino {
		cfg.UseRDMA = true
		cfg.Transit = 8 * time.Microsecond // RDMA hop + DNE stages
	} else {
		cfg.WorkerStack = transport.FStack
		cfg.Transit = 4 * time.Microsecond // cluster wire + F-stack poll
	}
	return NewEchoBackend(eng, p, cfg)
}
