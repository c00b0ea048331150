package ingress

import (
	"testing"
	"time"

	"nadino/internal/params"
	"nadino/internal/sim"
)

// drive runs n closed-loop clients against a gateway for dur and returns
// RPS and mean latency. (The workload package has the full client pool;
// this local loop avoids an import cycle in tests.)
func drive(t *testing.T, kind Kind, workers, clients int, dur time.Duration, autoScale bool) (rps float64, meanLat time.Duration) {
	t.Helper()
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	backend := DefaultEchoBackend(eng, p, kind, 4)
	gw := New(eng, p, Config{Kind: kind, InitialWorkers: workers, MaxWorkers: workers, AutoScale: autoScale}, backend)

	var completed int
	var latSum time.Duration
	for c := 0; c < clients; c++ {
		closedLoop(eng, gw, c, 512, 0, func(lat time.Duration) {
			completed++
			latSum += lat
		})
	}
	eng.RunUntil(dur)
	if completed == 0 {
		t.Fatalf("%v served nothing", kind)
	}
	return float64(completed) / dur.Seconds(), latSum / time.Duration(completed)
}

// closedLoop starts a client that submits a request of size bytes each
// way, and after each reply passes its latency to done (if non-nil) and
// submits again from one same-instant event, or think later.
func closedLoop(eng *sim.Engine, gw *Gateway, client, size int, think time.Duration, done func(lat time.Duration)) {
	var submit func()
	submit = func() {
		start := eng.Now()
		gw.Submit(Request{
			Client: client, Bytes: size, RespBytes: size, Stamp: start,
			Reply: func(Response) {
				if done != nil {
					done(eng.Now() - start)
				}
				eng.After(think, submit)
			},
		})
	}
	eng.Immediate(submit)
}

func TestIngressDesignOrdering(t *testing.T) {
	// Fig. 13 shape: NADINO > F-Ingress > K-Ingress in RPS at saturation,
	// and the reverse in latency, all with one ingress core.
	const clients = 32
	nadRPS, nadLat := drive(t, Nadino, 1, clients, 400*time.Millisecond, false)
	fRPS, fLat := drive(t, FIngress, 1, clients, 400*time.Millisecond, false)
	kRPS, kLat := drive(t, KIngress, 1, clients, 400*time.Millisecond, false)

	if !(nadRPS > fRPS && fRPS > kRPS) {
		t.Fatalf("RPS ordering violated: NADINO=%.0f F=%.0f K=%.0f", nadRPS, fRPS, kRPS)
	}
	if !(nadLat < fLat && fLat < kLat) {
		t.Fatalf("latency ordering violated: NADINO=%v F=%v K=%v", nadLat, fLat, kLat)
	}
	// "increases RPS by up to 11.4x and 3.2x compared to K-Ingress and
	// F-Ingress" — allow generous bands around those ratios.
	if r := nadRPS / kRPS; r < 5 || r > 20 {
		t.Errorf("NADINO/K RPS ratio = %.1f, want ~11x", r)
	}
	if r := nadRPS / fRPS; r < 1.8 || r > 6 {
		t.Errorf("NADINO/F RPS ratio = %.1f, want ~3.2x", r)
	}
}

func TestIngressLatencyLowLoad(t *testing.T) {
	// At a single client there is no queueing: differences come from path
	// costs only, and NADINO still wins.
	nadRPS, nadLat := drive(t, Nadino, 1, 1, 200*time.Millisecond, false)
	_, kLat := drive(t, KIngress, 1, 1, 200*time.Millisecond, false)
	if nadLat >= kLat {
		t.Fatalf("NADINO latency %v not below K-Ingress %v at low load", nadLat, kLat)
	}
	if nadRPS < 1000 {
		t.Fatalf("NADINO single-client RPS = %.0f, implausibly low", nadRPS)
	}
}

func TestAutoscalerAddsWorkersUnderLoad(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	backend := DefaultEchoBackend(eng, p, Nadino, 16)
	gw := New(eng, p, Config{Kind: Nadino, InitialWorkers: 1, MaxWorkers: 8, AutoScale: true}, backend)
	for c := 0; c < 48; c++ {
		closedLoop(eng, gw, c, 512, 0, nil)
	}
	eng.RunUntil(3 * time.Second)
	if gw.ActiveWorkers() < 2 {
		t.Fatalf("autoscaler never scaled up: %d workers", gw.ActiveWorkers())
	}
	if gw.ScaleEvents() == 0 {
		t.Fatal("no scale events recorded")
	}
}

func TestAutoscalerShrinksWhenIdle(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	backend := DefaultEchoBackend(eng, p, Nadino, 16)
	gw := New(eng, p, Config{Kind: Nadino, InitialWorkers: 4, MaxWorkers: 8, AutoScale: true}, backend)
	// One light client: far below the 30% scale-down threshold.
	closedLoop(eng, gw, 0, 128, time.Millisecond, nil)
	eng.RunUntil(5 * time.Second)
	if gw.ActiveWorkers() != 1 {
		t.Fatalf("autoscaler kept %d workers for an idle load", gw.ActiveWorkers())
	}
	// Retired workers stay listed: their busy time stays on the books.
	cores := gw.Cores()
	if len(cores) != 4 || cores[3].Name() != "ingress-w3" || cores[0].BusyTime() == 0 {
		t.Fatalf("Cores() lost workers: %d cores", len(cores))
	}
}

func TestKIngressOverloadDropsRequests(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	backend := DefaultEchoBackend(eng, p, KIngress, 16)
	gw := New(eng, p, Config{Kind: KIngress, InitialWorkers: 1, MaxWorkers: 1, QueueCap: 64}, backend)
	// Open-loop flood well past a single kernel core's capacity.
	i := 0
	var flood func()
	flood = func() {
		gw.Submit(Request{Client: i % 32, Bytes: 512, RespBytes: 512, Stamp: eng.Now()})
		i++
		eng.After(15*time.Microsecond, flood) // ~66K req/s offered, ~5x capacity
	}
	eng.Immediate(flood)
	eng.RunUntil(500 * time.Millisecond)
	if gw.Dropped() == 0 {
		t.Fatal("overloaded K-Ingress dropped nothing")
	}
	if gw.Served() == 0 {
		t.Fatal("overloaded K-Ingress served nothing at all")
	}
}

func TestRecorderSeries(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	backend := DefaultEchoBackend(eng, p, Nadino, 4)
	gw := New(eng, p, Config{Kind: Nadino, InitialWorkers: 1, MaxWorkers: 4}, backend)
	gw.StartRecorder(100 * time.Millisecond)
	closedLoop(eng, gw, 0, 256, 0, nil)
	eng.RunUntil(time.Second)
	if gw.RPSSeries.Len() < 8 {
		t.Fatalf("RPS series has %d points", gw.RPSSeries.Len())
	}
	if gw.RPSSeries.Max() <= 0 {
		t.Fatal("RPS series empty of signal")
	}
	if gw.CPUSeries.Max() != 1 {
		t.Fatalf("busy-poll CPU-in-use = %v, want 1 core", gw.CPUSeries.Max())
	}
}

// TestRetiredWorkerSleepingThroughPause is the regression for a worker the
// master retires while it sleeps through a restart pause: the master moves
// its queued request to another worker, and when the pause ends the
// retired worker must stop — not pop its now-empty queue. The request is
// served once, and the retired worker schedules nothing more.
func TestRetiredWorkerSleepingThroughPause(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	backend := DefaultEchoBackend(eng, p, Nadino, 1)
	gw := New(eng, p, Config{Kind: Nadino, InitialWorkers: 2, MaxWorkers: 4, AutoScale: true}, backend)
	replies := 0
	eng.At(400*time.Millisecond, func() {
		gw.InjectRestart(time.Second)
		gw.Submit(Request{Client: 1, Bytes: 512, RespBytes: 512, Stamp: eng.Now(),
			Reply: func(Response) { replies++ }})
	})
	eng.RunUntil(p.IngressScaleCheckEvery + time.Microsecond)
	if gw.ActiveWorkers() != 1 || gw.ScaleEvents() != 1 {
		t.Fatalf("%d active workers after %d scale events; want the master to retire one", gw.ActiveWorkers(), gw.ScaleEvents())
	}
	retired := gw.Cores()[1]
	ops := retired.Ops()
	eng.RunUntil(1450 * time.Millisecond) // past the retired worker's pause
	if replies != 1 || gw.Served() != 1 {
		t.Fatalf("%d replies, %d served; want the moved request served once", replies, gw.Served())
	}
	if retired.Ops() != ops {
		t.Fatalf("retired worker ran %d more ops", retired.Ops()-ops)
	}
	// Only the master's next sampling tick is left: the retired worker
	// parked nowhere and armed nothing when its pause ended.
	if eng.Pending() != 1 {
		t.Fatalf("%d events pending after the pause, want the master's tick alone", eng.Pending())
	}
}
