package core

import (
	"fmt"
	"testing"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/sim"
)

// procClosedLoop is the process form of the closed-loop clients the
// workload.Driver replaced, kept as its exactness reference: each client
// is spawned at once, waits for setup, then submits and blocks on the
// reply, forever. Cluster.WaitReady is gone, so the wait is rebuilt here
// as the same chained ready queue, released by one OnReady continuation;
// kicks reports whether that continuation was registered (a client had to
// wait).
func procClosedLoop(c *Cluster, n int) (kicks *uint64) {
	kicks = new(uint64)
	ready := sim.NewQueue[struct{}](c.Eng, 0)
	waitReady := func(pr *sim.Proc) {
		if c.Ready() {
			return
		}
		if *kicks == 0 {
			*kicks = 1
			c.OnReady(func() { ready.TryPut(struct{}{}) })
		}
		ready.Get(pr)
		ready.TryPut(struct{}{}) // let other waiters through
	}
	for i := 0; i < n; i++ {
		id := i
		c.Eng.Spawn("client", func(pr *sim.Proc) {
			waitReady(pr)
			respQ := sim.NewQueue[ingress.Response](c.Eng, 0)
			for {
				c.SubmitChain("mix", id, func(r ingress.Response) { respQ.TryPut(r) })
				respQ.Get(pr)
			}
		})
	}
	return kicks
}

// TestDriverMatchesProcessClients holds the driver to the one-event-per-
// block-point rule: on every system, with 1, 8 and 64 clients over 80 ms,
// the driver's closed loop (spawn -> Immediate, the ready wait -> one
// readiness wake, respQ.Get -> Immediate) completes the same requests with
// the same latency sum as the process clients, in the same number of
// events, and pays at least one process dispatch less per request.
func TestDriverMatchesProcessClients(t *testing.T) {
	run := func(sys System, n int, driver bool) (done uint64, lat time.Duration, fired, dispatches uint64) {
		c := NewCluster(testConfig(sys))
		defer c.Eng.Stop()
		var kicks *uint64
		if driver {
			closedLoop(c, n)
		} else {
			kicks = procClosedLoop(c, n)
		}
		c.Eng.RunUntil(80 * time.Millisecond)
		fired = c.Eng.Fired()
		if kicks != nil {
			// The rebuilt wait's OnReady kick is the one event the
			// deleted WaitReady did not need: setup released it directly.
			fired -= *kicks
		}
		return c.Completed.Total(), c.ChainLatency["mix"].Sum(), fired, c.Eng.Dispatches()
	}
	for _, sys := range Systems() {
		for _, n := range []int{1, 8, 64} {
			pDone, pLat, pFired, pDisp := run(sys, n, false)
			dDone, dLat, dFired, dDisp := run(sys, n, true)
			if pDone == 0 || dDone != pDone || dLat != pLat || dFired != pFired {
				t.Errorf("%v, %d clients: driver completed %d (latency sum %v) in %d events, processes %d (%v) in %d",
					sys, n, dDone, dLat, dFired, pDone, pLat, pFired)
			}
			if pDisp-dDisp < pDone {
				t.Errorf("%v, %d clients: driver saved %d dispatches over %d requests, want >= 1 per request",
					sys, n, pDisp-dDisp, pDone)
			}
		}
	}
}

// TestOnReadyOrder pins the readiness FIFO: continuations registered
// during setup run in order, each from its own event at the instant setup
// completes, and each wake schedules the next one before running its
// continuation — so an Immediate the first continuation schedules (10)
// runs after the second — and one registered afterwards runs at once.
func TestOnReadyOrder(t *testing.T) {
	c := NewCluster(testConfig(NadinoDNE))
	defer c.Eng.Stop()
	var order []int
	var at []time.Duration
	for i := 0; i < 3; i++ {
		i := i
		c.OnReady(func() {
			order = append(order, i)
			at = append(at, c.Eng.Now())
			if i == 0 {
				c.Eng.Immediate(func() { order = append(order, 10) })
			}
		})
	}
	for !c.Ready() {
		c.Eng.RunFor(time.Millisecond)
	}
	if fmt.Sprint(order) != "[0 1 10 2]" || at[0] != at[2] {
		t.Fatalf("OnReady ran %v at %v, want [0 1 10 2] at one instant", order, at)
	}
	fired := c.Eng.Fired()
	c.OnReady(func() { order = append(order, 3) })
	if len(order) != 5 || c.Eng.Fired() != fired {
		t.Fatalf("OnReady after setup did not run at once: %v", order)
	}
}
