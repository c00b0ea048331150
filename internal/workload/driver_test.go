package workload

import (
	"strings"
	"testing"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/sim"
)

// echo is a Submit against a system that answers every request after a
// fixed service time, recording what it was asked.
type echo struct {
	eng     *sim.Engine
	service time.Duration
	chains  []string
	clients []int
	at      []time.Duration
}

func (e *echo) submit(chain string, client, _ int, _ time.Duration, reply func(ingress.Response)) {
	e.chains = append(e.chains, chain)
	e.clients = append(e.clients, client)
	e.at = append(e.at, e.eng.Now())
	if reply != nil {
		e.eng.After(e.service, func() { reply(ingress.Response{}) })
	}
}

// TestDriverSpawnsNoProcess runs every driver shape and checks that none
// of them starts a process or hands control to one.
func TestDriverSpawnsNoProcess(t *testing.T) {
	rp, err := ParseTrace(strings.NewReader("0,a\n50,b,3\n50,a,1,2,20\n200,a\n"))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	defer eng.Stop()
	e := &echo{eng: eng, service: 10 * time.Microsecond}
	ready := []func(){}
	gate := func(fn func()) { ready = append(ready, fn) }
	eng.At(time.Millisecond, func() {
		for _, fn := range ready {
			fn()
		}
	})
	for _, d := range []*Driver{
		{Chains: []string{"a", "b"}, Clients: 4, Ready: gate},
		{Chains: []string{"a"}, Clients: 2, Think: func(int, int) time.Duration { return 30 * time.Microsecond }, Requests: 7},
		{Chains: []string{"a"}, Think: Every(25 * time.Microsecond), Until: 3 * time.Millisecond},
		{Trace: &TraceGen{Chains: []string{"a", "b"}, ZipfS: 1, BaseRPS: 20000, Period: time.Millisecond}},
		{Replay: rp, Ready: gate},
	} {
		d.Start(eng, e.submit)
	}
	eng.RunUntil(5 * time.Millisecond)
	if len(e.chains) < 1000 {
		t.Fatalf("drivers issued only %d requests", len(e.chains))
	}
	if n := eng.Dispatches(); n != 0 {
		t.Fatalf("drivers dispatched %d processes", n)
	}
	if n := eng.Procs(); n != 0 {
		t.Fatalf("%d processes live", n)
	}
}

// TestDriverClosedLoop pins the closed loop: client i drives
// Chains[i%len], each reply is followed by the think time, Requests caps
// each client and nothing is issued at or after Until.
func TestDriverClosedLoop(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	e := &echo{eng: eng, service: 10 * time.Microsecond}
	d := &Driver{
		Chains:   []string{"x", "y"},
		Clients:  3,
		Think:    func(client, n int) time.Duration { return time.Duration(client*100+n) * time.Microsecond },
		Requests: 4,
	}
	d.Start(eng, e.submit)
	eng.RunUntil(time.Second)
	if len(e.at) != 12 {
		t.Fatalf("issued %d requests, want 3 clients x 4", len(e.at))
	}
	// Client 1's requests: think 100µs before its first, then reply
	// (10µs) plus think 100+n µs before request n.
	var got []time.Duration
	for i, c := range e.clients {
		if c == 1 {
			if e.chains[i] != "y" {
				t.Fatalf("client 1 drove chain %q", e.chains[i])
			}
			got = append(got, e.at[i])
		}
	}
	want := []time.Duration{100, 211, 323, 436}
	for i := range want {
		if got[i] != want[i]*time.Microsecond {
			t.Fatalf("client 1 issued at %v, want %v µs", got, want)
		}
	}

	eng2 := sim.NewEngine(1)
	defer eng2.Stop()
	e2 := &echo{eng: eng2, service: 10 * time.Microsecond}
	d2 := &Driver{Clients: 2, Until: 95 * time.Microsecond}
	d2.Start(eng2, e2.submit)
	eng2.RunUntil(time.Second)
	// Back-to-back 10µs round trips: requests at 0, 10, ..., 90 per client.
	if len(e2.at) != 20 || e2.at[len(e2.at)-1] != 90*time.Microsecond || e2.chains[0] != "" {
		t.Fatalf("Until 95µs: %d requests, last at %v", len(e2.at), e2.at[len(e2.at)-1])
	}
}

// TestDriverReadyGate checks that Ready holds every first request back
// until the gate opens, and that clients go in order.
func TestDriverReadyGate(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	e := &echo{eng: eng, service: time.Millisecond}
	var waiting []func()
	open := false
	gate := func(fn func()) {
		if open {
			fn()
			return
		}
		waiting = append(waiting, fn)
	}
	(&Driver{Clients: 3, Ready: gate}).Start(eng, e.submit)
	(&Driver{Think: func(int, int) time.Duration { return 0 }, Requests: 1, Ready: gate}).Start(eng, e.submit)
	eng.RunUntil(50 * time.Microsecond)
	if len(e.at) != 0 || len(waiting) != 4 {
		t.Fatalf("%d requests and %d waiters before the gate opened", len(e.at), len(waiting))
	}
	eng.At(100*time.Microsecond, func() {
		open = true
		for _, fn := range waiting {
			fn()
		}
	})
	eng.RunUntil(200 * time.Microsecond)
	if got := e.clients; len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 0 {
		t.Fatalf("clients after the gate = %v, want [0 1 2 0]", got)
	}
	for _, at := range e.at {
		if at != 100*time.Microsecond {
			t.Fatalf("gated request issued at %v", at)
		}
	}
}

// TestDriverStop checks that a stopped driver issues nothing more while
// the requests in flight complete.
func TestDriverStop(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.Stop()
	e := &echo{eng: eng, service: 10 * time.Microsecond}
	d := &Driver{Clients: 2}
	d.Start(eng, e.submit)
	eng.RunUntil(55 * time.Microsecond)
	d.Stop()
	n := len(e.at)
	eng.RunUntil(time.Millisecond)
	if len(e.at) != n {
		t.Fatalf("stopped driver issued %d more requests", len(e.at)-n)
	}
}
