package dpu

import (
	"time"

	"nadino/internal/ipc"
	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// ChannelMode selects the host<->DPU descriptor channel variant compared in
// Fig. 9. Its methods are the variant's cost model; NewComch builds the
// channels.
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

// NewComch returns one function's pair of descriptor channels to the DNE:
// h2d carries host -> DPU and runs wake after each delivery (the DNE marks
// the port ready and wakes its loop; nil if no loop consumes it), d2h
// carries DPU -> host. Both deliver after m's transit latency.
func NewComch(eng *sim.Engine, p *params.Params, m ChannelMode, wake func()) (h2d, d2h *ipc.Chan) {
	lat := m.latency(p)
	return ipc.NewChan(eng, lat, trace.StageComchH2D, "comch", wake),
		ipc.NewChan(eng, lat, trace.StageComchD2H, "comch", nil)
}

// latency is the PCIe/ring/stack transit time of one descriptor.
func (m ChannelMode) latency(p *params.Params) time.Duration {
	switch m {
	case ComchE:
		return p.ComchEDeliver
	case ComchP:
		return p.ComchPDeliver
	default:
		return p.LoopbackTCPRTT / 2
	}
}

// SendCost is the sender-side software cost of a descriptor send, paid on
// the sender's core (the host function's or the DNE's).
func (m ChannelMode) SendCost(p *params.Params) time.Duration {
	if m == ChannelTCP {
		return p.LoopbackTCPCost
	}
	return p.ComchSendCost
}

// HostWakeupCost is what the receiving host function pays per descriptor:
// an epoll wakeup for Comch-E, nothing for busy-polled Comch-P, a kernel
// receive path for TCP.
func (m ChannelMode) HostWakeupCost(p *params.Params) time.Duration {
	switch m {
	case ComchE:
		return p.ComchEWakeup
	case ComchP:
		return 0
	default:
		return p.LoopbackTCPCost
	}
}

// DNERecvCost is the engine-side cost of pulling one descriptor off a
// function's channel, given how many endpoints the engine monitors. For
// Comch-P this includes the progress-engine epoll that scales with
// endpoints — the scalability cliff of Fig. 9. For TCP it is kernel
// receive processing.
func (m ChannelMode) DNERecvCost(p *params.Params, endpoints int) time.Duration {
	switch m {
	case ComchE:
		return 0 // folded into the DNE's per-message costs
	case ComchP:
		return time.Duration(endpoints) * p.ComchPPerEndpoint
	default:
		return p.LoopbackTCPCost
	}
}
