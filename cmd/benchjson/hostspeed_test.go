package main

import (
	"container/heap"
	"math/rand"
	"testing"
)

// BenchmarkHostSpeed is the host-speed reference of `make bench` and
// `make bench-gate`: a fixed standard-library workload shaped like the
// gated microbenchmarks (an event heap of allocated nodes, map updates,
// dependent random reads from 4 MiB), timed between their package runs.
// benchjson rescales each gated result by the readings around it
// (normalize), so a phase in which the host runs slow for every program
// does not read as a regression. It imports nothing from the simulator,
// so no change to the simulator moves it.
func BenchmarkHostSpeed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mem := make([]uint64, 1<<19)
	for i := range mem {
		mem[i] = rng.Uint64()
	}
	h := &refHeap{}
	for i := 0; i < 256; i++ {
		heap.Push(h, &refNode{at: rng.Uint64()})
	}
	counts := map[uint64]uint64{}
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			heap.Push(h, &refNode{at: x})
			counts[heap.Pop(h).(*refNode).at&4095]++
			x = x*6364136223846793005 + 1442695040888963407
		}
		for j := 0; j < 16; j++ {
			x = x*6364136223846793005 + 1442695040888963407 + mem[x>>45]
		}
	}
	refSink += x
}

var refSink uint64

type refNode struct{ at uint64 }

// refHeap is a min-heap of refNodes by at.
type refHeap []*refNode

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refNode)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
