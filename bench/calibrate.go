package main

import (
	"container/heap"
	"runtime"
	"time"
)

// Host speed drifts. On a shared machine the same fixed loop can take 112
// ms in one second and 184 ms a few seconds later (other tenants' load;
// no steal time shows, so CPU time drifts with it). A median over replicas
// cannot remove a drift that lasts longer than the run, so host-time
// metrics are normalized: a fixed probe is timed between the phases of
// every replica, and each phase's time is scaled by probeRef over the mean
// of the two probes around it. The probe is standard-library code shaped
// like the simulator's own host profile (goroutine handoffs, a timer heap
// that allocates, random memory access), so it slows down when the
// simulator does. README.md records raw and normalized spreads.

// probeRef is the probe's duration at the reference host speed, the unit
// normalized times are expressed in: a typical probe time on the 2-vCPU
// Xeon VM the bounds in BENCHMARK.json were measured on. Its value only
// fixes the unit; every run is scaled by the same constant.
const probeRef = 30 * time.Millisecond

// speedTrack keeps the latest probe so consecutive phases share the probe
// between them.
type speedTrack struct {
	last   time.Duration
	probes []float64 // every probe, in ms
}

func newSpeedTrack() *speedTrack {
	st := &speedTrack{}
	st.last = st.probe()
	return st
}

func (st *speedTrack) probe() time.Duration {
	d := speedProbe()
	st.probes = append(st.probes, float64(d.Microseconds())/1e3)
	return d
}

// next probes again and returns the speed factor of the phase since the
// previous probe: probeRef over the mean of the two.
func (st *speedTrack) next() float64 {
	d := st.probe()
	f := 2 * float64(probeRef) / float64(st.last+d)
	st.last = d
	return f
}

var probeSink uint64

// speedProbe runs the fixed probe after a GC and returns its wall time.
func speedProbe() time.Duration {
	runtime.GC()
	start := time.Now()

	// Goroutine handoffs: a ping-pong over unbuffered channels.
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	var v uint64
	for i := 0; i < 20000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong

	// A timer heap: push allocated events with pseudo-random deadlines,
	// pop the earliest, and count them in a map.
	h := &probeHeap{}
	seen := map[uint64]uint64{}
	x := uint64(7)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		heap.Push(h, &probeEvent{at: x >> 40, seq: uint64(i)})
		if h.Len() > 1000 {
			e := heap.Pop(h).(*probeEvent)
			seen[e.seq%4096] += e.at
		}
	}

	// Random access over 8 MB.
	buf := make([]uint64, 1<<20)
	for i := 0; i < 2000000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[x>>44] += x
	}

	probeSink = v + uint64(len(seen)) + buf[x>>44]
	return time.Since(start)
}

type probeEvent struct{ at, seq uint64 }

type probeHeap []*probeEvent

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x.(*probeEvent)) }
func (h *probeHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
