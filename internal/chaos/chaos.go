// Package chaos is the declarative fault-injection subsystem: a Schedule of
// timed, seeded fault events applied and reverted at exact virtual times
// through one Injector. Faults reach the rest of the simulator through small
// injection hooks — directed-link state on fabric.Network, QP.ForceError /
// ConnPool.ForceError on the RDMA transport, DMAEngine.Stall on the DPU SoC,
// Processor.SetSpeed on cores, and Gateway.InjectRestart on the ingress —
// so this package depends only on sim and fabric and every other package's
// tests can import it without cycles.
//
// Determinism contract: all randomness (storm construction, fabric loss and
// jitter draws) comes from seeded RNGs — the Injector's own RNG derived from
// the experiment seed and the engine's RNG — so a fixed seed gives bitwise
// identical results, including under parallel experiment sharding (one
// engine and one injector per sweep point).
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/flightrec"
	"nadino/internal/sim"
)

// Staller is a component whose pipeline can be stalled for a duration (the
// DPU SoC DMA engine).
type Staller interface {
	Stall(dur time.Duration)
}

// Restarter is a component that can be forced through a restart pause (the
// ingress gateway).
type Restarter interface {
	InjectRestart(pause time.Duration)
}

// QPErrorTarget is a set of RC connections that can be forced into the
// error state (rdma.ConnPool).
type QPErrorTarget interface {
	ForceError(n int) int
}

// seedSalt decorrelates the chaos RNG from other consumers of the same
// experiment seed.
const seedSalt int64 = 0x6368616f73 // "chaos"

// Injector owns the fault targets and applies scheduled faults. One
// injector per engine; register targets under names the Schedule's faults
// reference.
type Injector struct {
	eng *sim.Engine
	net *fabric.Network
	rng *rand.Rand

	stallers   map[string]Staller
	restarters map[string]Restarter
	// QP targets are registered as providers because connection pools only
	// exist after rig setup completes (QPSetupTime into the run), while
	// schedules are installed at t=0.
	qps   map[string]func() []QPErrorTarget
	cores map[string][]*sim.Processor

	applied  int
	reverted int
	history  []string

	rec *flightrec.Recorder
}

// NewInjector returns an injector for the engine and network, with its RNG
// derived from seed.
func NewInjector(eng *sim.Engine, net *fabric.Network, seed int64) *Injector {
	return &Injector{
		eng:        eng,
		net:        net,
		rng:        rand.New(rand.NewSource(seed ^ seedSalt)),
		stallers:   make(map[string]Staller),
		restarters: make(map[string]Restarter),
		qps:        make(map[string]func() []QPErrorTarget),
		cores:      make(map[string][]*sim.Processor),
	}
}

// RegisterStaller names a stallable component (e.g. "dma@nodeA").
func (in *Injector) RegisterStaller(name string, s Staller) { in.stallers[name] = s }

// RegisterGateway names a restartable gateway (e.g. "ingress").
func (in *Injector) RegisterGateway(name string, r Restarter) { in.restarters[name] = r }

// RegisterQPs names a lazy provider of QP error targets (e.g. "qp@nodeA").
// The provider runs at fault-apply time, after connection pools exist.
func (in *Injector) RegisterQPs(name string, provide func() []QPErrorTarget) {
	in.qps[name] = provide
}

// RegisterCores names a set of degradable cores (e.g. "cores@nodeA").
func (in *Injector) RegisterCores(name string, cores ...*sim.Processor) {
	in.cores[name] = append(in.cores[name], cores...)
}

func (in *Injector) staller(name string) Staller {
	s, ok := in.stallers[name]
	if !ok {
		panic(fmt.Sprintf("chaos: no staller registered as %q", name))
	}
	return s
}

func (in *Injector) restarter(name string) Restarter {
	r, ok := in.restarters[name]
	if !ok {
		panic(fmt.Sprintf("chaos: no gateway registered as %q", name))
	}
	return r
}

func (in *Injector) qpTargets(name string) []QPErrorTarget {
	provide, ok := in.qps[name]
	if !ok {
		panic(fmt.Sprintf("chaos: no QP set registered as %q", name))
	}
	return provide()
}

func (in *Injector) coreSet(name string) []*sim.Processor {
	cs, ok := in.cores[name]
	if !ok || len(cs) == 0 {
		panic(fmt.Sprintf("chaos: no cores registered as %q", name))
	}
	return cs
}

// Fault is one injectable failure mode. Apply takes effect immediately (in
// engine context) and returns the revert closure, or nil when there is
// nothing to undo (the fault is instantaneous or self-clearing). window is
// the event's For duration — faults like DMAStall and GatewayRestart
// consume it directly instead of scheduling a revert.
type Fault interface {
	Label() string
	Apply(in *Injector, window time.Duration) (revert func())
}

// Event schedules one fault at virtual time At. For For > 0 the fault's
// revert (if any) runs at At+For; with For == 0 the fault is permanent (or
// instantaneous, for apply-only faults).
type Event struct {
	At    time.Duration
	For   time.Duration
	Fault Fault
}

// Schedule is a fault timeline.
type Schedule []Event

// Install arms every event on the engine. Call before (or during) the run;
// events in the past panic, matching the engine's scheduling contract.
func (in *Injector) Install(s Schedule) {
	for _, ev := range s {
		ev := ev
		in.eng.At(ev.At, func() {
			revert := ev.Fault.Apply(in, ev.For)
			in.applied++
			in.record("apply", ev.Fault)
			if revert != nil && ev.For > 0 {
				in.eng.At(ev.At+ev.For, func() {
					revert()
					in.reverted++
					in.record("revert", ev.Fault)
				})
			}
		})
	}
}

// SetFlightRecorder routes apply/revert events into the flight recorder
// (nil detaches). Actors are the fault labels, interned on first apply.
func (in *Injector) SetFlightRecorder(r *flightrec.Recorder) { in.rec = r }

func (in *Injector) record(verb string, f Fault) {
	in.history = append(in.history,
		fmt.Sprintf("t=%v %s %s", in.eng.Now(), verb, f.Label()))
	if in.rec != nil {
		k := flightrec.KindChaosApply
		if verb == "revert" {
			k = flightrec.KindChaosRevert
		}
		in.rec.Record(k, in.rec.Actor(f.Label()), 0, 0)
	}
}

// Applied reports faults applied so far.
func (in *Injector) Applied() int { return in.applied }

// Reverted reports faults reverted so far.
func (in *Injector) Reverted() int { return in.reverted }

// History returns the apply/revert log (tests and debugging).
func (in *Injector) History() []string { return in.history }
