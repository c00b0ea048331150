// Package dpu models the NVIDIA BlueField-2 SoC: the slow SoC DMA engine
// that makes on-path offloading expensive (§4.1.1), the integrated RNIC,
// cross-processor memory mapping (DOCA mmap, §3.4.2), and the DOCA Comch
// host<->DPU descriptor channels (§3.5.4). Its ARM cores are the network
// engine's worker and keeper, which dne.New creates.
package dpu

import (
	"time"

	"nadino/internal/fabric"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// DPU is one BlueField-2 attached to a worker node.
type DPU struct {
	node fabric.NodeID
	soc  *DMAEngine
	rnic *rdma.RNIC
}

// New creates a DPU for node, attaching its integrated RNIC to the fabric.
func New(eng *sim.Engine, p *params.Params, node fabric.NodeID, net *fabric.Network) *DPU {
	return &DPU{
		node: node,
		soc:  NewDMAEngine(eng, p),
		rnic: rdma.NewRNIC(eng, p, node, net),
	}
}

// Node reports the host node this DPU is plugged into.
func (d *DPU) Node() fabric.NodeID { return d.node }

// RNIC returns the integrated ConnectX RNIC.
func (d *DPU) RNIC() *rdma.RNIC { return d.rnic }

// SoCDMA returns the SoC's DMA engine (used only in on-path mode).
func (d *DPU) SoCDMA() *DMAEngine { return d.soc }

// DMAEngine is the BlueField SoC DMA: high small-op latency (~2.6 us for a
// 64 B read) and limited bandwidth, with a single FIFO channel — the
// bottleneck that makes on-path offloading collapse under concurrency.
type DMAEngine struct {
	eng       *sim.Engine
	p         *params.Params
	busyUntil time.Duration
	busyTime  time.Duration
	stallTime time.Duration
	ops       uint64
}

// NewDMAEngine returns an idle SoC DMA engine.
func NewDMAEngine(eng *sim.Engine, p *params.Params) *DMAEngine {
	return &DMAEngine{eng: eng, p: p}
}

// Transfer queues a copy of n bytes across the PCIe boundary and invokes
// done when it completes. Engine context.
func (d *DMAEngine) Transfer(n int, done func()) {
	now := d.eng.Now()
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	dur := d.p.SoCDMAPerOp + params.Bytes(d.p.SoCDMAPerByte, n)
	d.busyUntil = start + dur
	d.busyTime += dur
	d.ops++
	d.eng.At(d.busyUntil, done)
}

// Stall blocks the DMA channel for dur: transfers already queued and any
// issued during the stall complete only after it ends. Models a SoC DMA
// hiccup (firmware housekeeping, PCIe backpressure); injection hook for
// internal/chaos. Stall time is tracked separately from busy time.
func (d *DMAEngine) Stall(dur time.Duration) {
	if dur <= 0 {
		return
	}
	now := d.eng.Now()
	if d.busyUntil < now {
		d.busyUntil = now
	}
	d.busyUntil += dur
	d.stallTime += dur
}

// StallTime reports total injected stall time.
func (d *DMAEngine) StallTime() time.Duration { return d.stallTime }

// BusyTime reports accumulated DMA busy time.
func (d *DMAEngine) BusyTime() time.Duration { return d.busyTime }

// Ops reports completed transfers.
func (d *DMAEngine) Ops() uint64 { return d.ops }
