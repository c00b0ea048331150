package workload

import (
	"testing"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/params"
	"nadino/internal/sim"
)

func newGateway(t *testing.T) (*sim.Engine, *ingress.Gateway) {
	t.Helper()
	p := params.Default()
	eng := sim.NewEngine(1)
	t.Cleanup(eng.Stop)
	backend := ingress.DefaultEchoBackend(eng, p, ingress.Nadino, 4)
	gw := ingress.New(eng, p, ingress.Config{Kind: ingress.Nadino, InitialWorkers: 1, MaxWorkers: 1}, backend)
	return eng, gw
}

func TestClosedLoopClients(t *testing.T) {
	eng, gw := newGateway(t)
	cp := NewClientPool(eng, gw, 256, 256)
	cp.AddClients(4)
	eng.RunUntil(100 * time.Millisecond)
	if cp.Completed.Total() == 0 {
		t.Fatal("clients completed nothing")
	}
	if cp.Latency.Count() != cp.Completed.Total() {
		t.Fatalf("latency samples %d != completions %d", cp.Latency.Count(), cp.Completed.Total())
	}
	if cp.Clients() != 4 {
		t.Fatalf("clients = %d", cp.Clients())
	}
	if cp.Disconnected() != 0 {
		t.Fatalf("disconnected = %d without timeout", cp.Disconnected())
	}
}

func TestMultiConnClients(t *testing.T) {
	eng, gw := newGateway(t)
	cp := NewClientPool(eng, gw, 256, 256)
	cp.ConnsPerClient = 8
	cp.AddClient()
	eng.RunUntil(50 * time.Millisecond)
	one := cp.Completed.Total()

	eng2, gw2 := newGateway(t)
	cp2 := NewClientPool(eng2, gw2, 256, 256)
	cp2.ConnsPerClient = 1
	cp2.AddClient()
	eng2.RunUntil(50 * time.Millisecond)
	if one <= cp2.Completed.Total() {
		t.Fatalf("8-conn client (%d) not above 1-conn client (%d)", one, cp2.Completed.Total())
	}
}

func TestRampUpSchedule(t *testing.T) {
	eng, gw := newGateway(t)
	cp := NewClientPool(eng, gw, 128, 128)
	cp.RampUp(5, 10*time.Millisecond)
	eng.RunUntil(5 * time.Millisecond)
	if cp.Clients() != 1 {
		t.Fatalf("clients at 5ms = %d, want 1", cp.Clients())
	}
	eng.RunUntil(100 * time.Millisecond)
	if cp.Clients() != 5 {
		t.Fatalf("clients at 100ms = %d, want 5", cp.Clients())
	}
}

func TestOpenLoopGeneratesWithoutResponses(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	gw := ingress.New(eng, p, ingress.Config{Kind: ingress.Nadino, InitialWorkers: 1, MaxWorkers: 1, QueueCap: 16}, blackholeBackend{})
	cp := NewClientPool(eng, gw, 128, 128)
	cp.OpenLoopRate = 400000 // past a single worker's capacity
	cp.Timeout = 10 * time.Millisecond
	cp.AddClient()
	eng.RunUntil(100 * time.Millisecond)
	// The generator kept offering load despite zero responses.
	if cp.Disconnected() < 1000 {
		t.Fatalf("open-loop client disconnected only %d times", cp.Disconnected())
	}
	if gw.Dropped() == 0 {
		t.Fatal("bounded queue never dropped under open-loop flood")
	}
}

// blackholeBackend accepts requests and never responds.
type blackholeBackend struct{}

func (blackholeBackend) Forward(*ingress.Exchange) {}

func TestStop(t *testing.T) {
	eng, gw := newGateway(t)
	cp := NewClientPool(eng, gw, 128, 128)
	cp.AddClients(2)
	eng.RunUntil(20 * time.Millisecond)
	cp.Stop()
	eng.RunUntil(25 * time.Millisecond)
	after := cp.Completed.Total()
	eng.RunUntil(60 * time.Millisecond)
	if cp.Completed.Total() > after+2 {
		t.Fatalf("clients kept completing after Stop: %d -> %d", after, cp.Completed.Total())
	}
}
