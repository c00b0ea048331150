package dpu

import (
	"time"

	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// ChannelMode selects the host<->DPU descriptor channel variant compared in
// Fig. 9.
type ChannelMode int

// Channel variants.
const (
	// ComchE is DOCA Comch with event-driven send/receive over epoll: no
	// dedicated cores, moderate latency, stable under many functions.
	// NADINO's choice (§3.5.4).
	ComchE ChannelMode = iota
	// ComchP is DOCA Comch's producer-consumer ring with busy polling:
	// lowest latency, but ties up one host core per function, and the
	// DNE-side "progress engine" cost scales with monitored endpoints.
	ComchP
	// ChannelTCP is the kernel TCP baseline between host and DPU.
	ChannelTCP
)

func (m ChannelMode) String() string {
	switch m {
	case ComchE:
		return "Comch-E"
	case ComchP:
		return "Comch-P"
	case ChannelTCP:
		return "TCP"
	}
	return "?"
}

// Endpoint is one function's bidirectional descriptor channel to the DNE.
// The DNE side holds the ToDNE queues of all endpoints and serves them from
// its run-to-completion loop.
type Endpoint struct {
	ID     int
	Fn     string
	Tenant string
	mode   ChannelMode
	eng    *sim.Engine
	p      *params.Params

	toDNE  *sim.Queue[mempool.Descriptor]
	toHost *sim.Queue[mempool.Descriptor]
	// wake, when set, runs after every delivery to the DNE side: the
	// consumer's hook to wake its loop (the DNE also marks the port ready).
	wake func()

	sentToDNE  uint64
	sentToHost uint64

	// freeDel pools delivery timer nodes so the per-descriptor After() on
	// the send path does not allocate a fresh closure per message.
	freeDel []*comchDelivery
}

// comchDelivery is a pooled in-flight descriptor: its fn closure is bound
// once at allocation and re-armed for every transit through the channel.
type comchDelivery struct {
	ep     *Endpoint
	d      mempool.Descriptor
	toHost bool
	fn     func()
}

func (ep *Endpoint) allocDelivery(d mempool.Descriptor, toHost bool) *comchDelivery {
	var dv *comchDelivery
	if n := len(ep.freeDel); n > 0 {
		dv = ep.freeDel[n-1]
		ep.freeDel = ep.freeDel[:n-1]
	} else {
		dv = &comchDelivery{ep: ep}
		dv.fn = dv.run
	}
	dv.d = d
	dv.toHost = toHost
	return dv
}

func (dv *comchDelivery) run() {
	ep := dv.ep
	d := dv.d
	toHost := dv.toHost
	dv.d = mempool.Descriptor{}
	ep.freeDel = append(ep.freeDel, dv)
	if toHost {
		ep.toHost.TryPut(d)
		return
	}
	ep.toDNE.TryPut(d)
	if ep.wake != nil {
		ep.wake()
	}
}

// NewEndpoint creates an endpoint. wake runs after each descriptor reaches
// the DNE side, in the delivering event (e.g. a loop's signal Pulse); pass
// nil if no loop consumes it.
func NewEndpoint(eng *sim.Engine, p *params.Params, mode ChannelMode, id int, fn, tenant string, wake func()) *Endpoint {
	return &Endpoint{
		ID:     id,
		Fn:     fn,
		Tenant: tenant,
		mode:   mode,
		eng:    eng,
		p:      p,
		toDNE:  sim.NewQueue[mempool.Descriptor](eng, 0),
		toHost: sim.NewQueue[mempool.Descriptor](eng, 0),
		wake:   wake,
	}
}

// Mode reports the channel variant.
func (ep *Endpoint) Mode() ChannelMode { return ep.mode }

// SendCost is the sender-side software cost of a descriptor send, paid on
// the caller's core.
func (ep *Endpoint) SendCost() time.Duration {
	if ep.mode == ChannelTCP {
		return ep.p.LoopbackTCPCost
	}
	return ep.p.ComchSendCost
}

// deliverLatency is the PCIe/ring/stack transit time of one descriptor.
func (ep *Endpoint) deliverLatency() time.Duration {
	switch ep.mode {
	case ComchE:
		return ep.p.ComchEDeliver
	case ComchP:
		return ep.p.ComchPDeliver
	default:
		return ep.p.LoopbackTCPRTT / 2
	}
}

// HostWakeupCost is what the receiving host function pays per descriptor:
// an epoll wakeup for Comch-E, nothing for busy-polled Comch-P, a kernel
// receive path for TCP.
func (ep *Endpoint) HostWakeupCost() time.Duration {
	switch ep.mode {
	case ComchE:
		return ep.p.ComchEWakeup
	case ComchP:
		return 0
	default:
		return ep.p.LoopbackTCPCost
	}
}

// DNERecvCost is the engine-side cost of pulling one descriptor off this
// endpoint, given how many endpoints the engine monitors. For Comch-P this
// includes the progress-engine epoll that scales with endpoints — the
// scalability cliff of Fig. 9. For TCP it is kernel receive processing.
func (ep *Endpoint) DNERecvCost(endpoints int) time.Duration {
	switch ep.mode {
	case ComchE:
		return 0 // folded into the DNE's per-message costs
	case ComchP:
		return time.Duration(endpoints) * ep.p.ComchPPerEndpoint
	default:
		return ep.p.LoopbackTCPCost
	}
}

// PinsHostCore reports whether the host function must dedicate a core to
// busy-polling this channel (Comch-P's practicality problem).
func (ep *Endpoint) PinsHostCore() bool { return ep.mode == ComchP }

// SendToDNE ships a descriptor host -> DPU. The caller pays SendCost on its
// own core before calling.
func (ep *Endpoint) SendToDNE(d mempool.Descriptor) {
	ep.sentToDNE++
	d.Trace.BeginStage(trace.StageComchH2D, "comch")
	ep.eng.After(ep.deliverLatency(), ep.allocDelivery(d, false).fn)
}

// SendToHost ships a descriptor DPU -> host.
func (ep *Endpoint) SendToHost(d mempool.Descriptor) {
	ep.sentToHost++
	d.Trace.BeginStage(trace.StageComchD2H, "comch")
	ep.eng.After(ep.deliverLatency(), ep.allocDelivery(d, true).fn)
}

// TryRecvFromHost lets the DNE loop pull one pending descriptor.
func (ep *Endpoint) TryRecvFromHost() (mempool.Descriptor, bool) {
	d, ok := ep.toDNE.TryGet()
	if ok {
		d.Trace.EndStage(trace.StageComchH2D)
	}
	return d, ok
}

// PendingFromHost reports queued host->DNE descriptors.
func (ep *Endpoint) PendingFromHost() int { return ep.toDNE.Len() }

// NotifyOnHost parks fn until a descriptor arrives on the host side, for
// an endpoint TryRecvOnHost just found empty (see sim.Queue.Notify); fn
// takes it with TryRecvOnHost. The wakeup cost is paid by the receiver
// afterwards (it knows its core).
func (ep *Endpoint) NotifyOnHost(fn func()) { ep.toHost.Notify(fn) }

// TryRecvOnHost is the non-blocking host-side receive.
func (ep *Endpoint) TryRecvOnHost() (mempool.Descriptor, bool) {
	d, ok := ep.toHost.TryGet()
	if ok {
		d.Trace.EndStage(trace.StageComchD2H)
	}
	return d, ok
}

// Stats reports descriptors moved in each direction.
func (ep *Endpoint) Stats() (toDNE, toHost uint64) { return ep.sentToDNE, ep.sentToHost }
