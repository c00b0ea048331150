package chaos

import (
	"fmt"
	"time"

	"nadino/internal/fabric"
)

// LinkDown takes one directed link down for the event window.
type LinkDown struct {
	From, To fabric.NodeID
}

func (f LinkDown) Label() string { return fmt.Sprintf("link-down(%s>%s)", f.From, f.To) }

func (f LinkDown) Apply(in *Injector, _ time.Duration) func() {
	in.net.SetLinkDown(f.From, f.To, true)
	return func() { in.net.SetLinkDown(f.From, f.To, false) }
}

// NodeDown takes every link touching a node down for the event window — the
// classic node blip the legacy test rigs hand-rolled with fabric.SetDown.
type NodeDown struct {
	Node fabric.NodeID
}

func (f NodeDown) Label() string { return fmt.Sprintf("node-down(%s)", f.Node) }

func (f NodeDown) Apply(in *Injector, _ time.Duration) func() {
	in.net.SetDown(f.Node, true)
	return func() { in.net.SetDown(f.Node, false) }
}

// Partition cuts every link from group A to group B; unless OneWay is set
// the reverse direction is cut too. OneWay models asymmetric partitions
// (A's traffic is lost, B's still arrives).
type Partition struct {
	A, B   []fabric.NodeID
	OneWay bool
}

func (f Partition) Label() string {
	dir := "<>"
	if f.OneWay {
		dir = ">"
	}
	return fmt.Sprintf("partition(%v%s%v)", f.A, dir, f.B)
}

func (f Partition) Apply(in *Injector, _ time.Duration) func() {
	f.set(in, true)
	return func() { f.set(in, false) }
}

func (f Partition) set(in *Injector, down bool) {
	for _, a := range f.A {
		for _, b := range f.B {
			in.net.SetLinkDown(a, b, down)
			if !f.OneWay {
				in.net.SetLinkDown(b, a, down)
			}
		}
	}
}

// LinkLoss drops each message on a directed link with probability Prob for
// the event window.
type LinkLoss struct {
	From, To fabric.NodeID
	Prob     float64
}

func (f LinkLoss) Label() string {
	return fmt.Sprintf("link-loss(%s>%s p=%.2f)", f.From, f.To, f.Prob)
}

func (f LinkLoss) Apply(in *Injector, _ time.Duration) func() {
	in.net.SetLinkLoss(f.From, f.To, f.Prob)
	return func() { in.net.SetLinkLoss(f.From, f.To, 0) }
}

// LinkJitter adds Extra fixed delay plus uniform jitter in [0, Jitter) to a
// directed link for the event window.
type LinkJitter struct {
	From, To      fabric.NodeID
	Extra, Jitter time.Duration
}

func (f LinkJitter) Label() string {
	return fmt.Sprintf("link-jitter(%s>%s +%v~%v)", f.From, f.To, f.Extra, f.Jitter)
}

func (f LinkJitter) Apply(in *Injector, _ time.Duration) func() {
	in.net.SetLinkLatency(f.From, f.To, f.Extra, f.Jitter)
	return func() { in.net.SetLinkLatency(f.From, f.To, 0, 0) }
}

// NodeCrash models a crash+restart: all the node's links are down for the
// event window, and when it comes back, the QP sets named in QPs (if any)
// are force-errored — the rebooted peer lost its QP state, so the surviving
// side must re-handshake via ConnPool.Repair.
type NodeCrash struct {
	Node fabric.NodeID
	QPs  string // injector QP-set name errored on restart; "" to skip
}

func (f NodeCrash) Label() string { return fmt.Sprintf("node-crash(%s)", f.Node) }

func (f NodeCrash) Apply(in *Injector, _ time.Duration) func() {
	in.net.SetDown(f.Node, true)
	return func() {
		in.net.SetDown(f.Node, false)
		if f.QPs != "" {
			for _, t := range in.qps[f.QPs]() {
				t.ForceError(0)
			}
		}
	}
}

// DMAStall freezes a registered SoC DMA engine for the event window. The
// stall itself spans the window, so there is nothing to revert.
type DMAStall struct {
	Target string // staller name, e.g. "dma@nodeA"
}

func (f DMAStall) Label() string { return fmt.Sprintf("dma-stall(%s)", f.Target) }

func (f DMAStall) Apply(in *Injector, window time.Duration) func() {
	in.stallers[f.Target].Stall(window)
	return nil
}

// SlowCores degrades a registered core set to Factor of its current speed
// for the event window (e.g. 0.5 halves throughput — thermal throttling or
// a co-resident hog).
type SlowCores struct {
	Target string
	Factor float64
}

func (f SlowCores) Label() string {
	return fmt.Sprintf("slow-cores(%s x%.2f)", f.Target, f.Factor)
}

func (f SlowCores) Apply(in *Injector, _ time.Duration) func() {
	if f.Factor <= 0 {
		panic(fmt.Sprintf("chaos: slow-cores factor %v must be positive", f.Factor))
	}
	cores := in.cores[f.Target]
	orig := make([]float64, len(cores))
	for i, c := range cores {
		orig[i] = c.Speed()
		c.SetSpeed(orig[i] * f.Factor)
	}
	return func() {
		for i, c := range cores {
			c.SetSpeed(orig[i])
		}
	}
}

// QPError forces up to Count connections (0 = all) in a registered QP set
// into the error state. Instantaneous: recovery happens through the normal
// ConnPool.Repair path, not a revert.
type QPError struct {
	Target string
	Count  int
}

func (f QPError) Label() string { return fmt.Sprintf("qp-error(%s n=%d)", f.Target, f.Count) }

func (f QPError) Apply(in *Injector, _ time.Duration) func() {
	for _, t := range in.qps[f.Target]() {
		t.ForceError(f.Count)
	}
	return nil
}

// GatewayRestart pauses a registered ingress gateway for the event window
// (workers hold their queues, like a rolling redeploy). Apply-only: the
// pause duration is the window itself.
type GatewayRestart struct {
	Target string
}

func (f GatewayRestart) Label() string { return fmt.Sprintf("gateway-restart(%s)", f.Target) }

func (f GatewayRestart) Apply(in *Injector, window time.Duration) func() {
	in.restarters[f.Target].InjectRestart(window)
	return nil
}

// LinkStorm builds a seeded random fault storm: events faults across the
// directed links among nodes, uniformly placed in [start, start+span), each
// lasting up to maxDur. Kinds rotate through outage, loss (p in
// [0.05,0.35)) and jitter by RNG draw. Construction consumes the injector's
// own RNG, so the storm shape is part of the deterministic seed contract.
func (in *Injector) LinkStorm(nodes []fabric.NodeID, start, span time.Duration, events int, maxDur time.Duration) Schedule {
	if len(nodes) < 2 {
		panic("chaos: storm needs at least two nodes")
	}
	if span <= 0 || maxDur <= 0 || events <= 0 {
		panic("chaos: storm span, maxDur and events must be positive")
	}
	s := make(Schedule, 0, events)
	for i := 0; i < events; i++ {
		from := nodes[in.rng.Intn(len(nodes))]
		to := nodes[in.rng.Intn(len(nodes)-1)]
		if to == from {
			to = nodes[len(nodes)-1]
		}
		at := start + time.Duration(in.rng.Int63n(int64(span)))
		dur := 1 + time.Duration(in.rng.Int63n(int64(maxDur)))
		var f Fault
		switch in.rng.Intn(3) {
		case 0:
			f = LinkDown{From: from, To: to}
		case 1:
			f = LinkLoss{From: from, To: to, Prob: 0.05 + 0.30*in.rng.Float64()}
		default:
			f = LinkJitter{From: from, To: to, Extra: dur / 10, Jitter: dur / 5}
		}
		s = append(s, Event{At: at, For: dur, Fault: f})
	}
	return s
}
