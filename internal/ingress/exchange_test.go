package ingress

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nadino/internal/params"
	"nadino/internal/sim"
)

// delayBackend answers each exchange through its record a random number
// of grid steps after Forward, so responses come back out of order, and
// now and then answers it a second time, as a backend that saw the
// request twice does.
type delayBackend struct {
	eng               *sim.Engine
	rng               *rand.Rand
	grid              time.Duration
	forwards, answers int
}

func (b *delayBackend) Forward(x *Exchange) {
	b.forwards++
	n := 1
	if b.rng.Intn(8) == 0 {
		n = 2
	}
	for ; n > 0; n-- {
		b.answers++
		b.eng.After(time.Duration(b.rng.Intn(20))*b.grid, func() {
			x.Done(Response{ID: x.ID, Bytes: x.RespBytes, Stamp: x.Stamp})
		})
	}
}

// TestLegsDeliverInSendOrderAtLatency drives random submit schedules
// through gateways of every kind: grid-aligned submits so sends and
// arrivals share instants, same-instant bursts, submits from reply
// callbacks, and on K-Ingress a queue cap that drops. Every request must
// arrive the client leg's latency after its submit, in submit order, and
// land at the back of its worker's queue unless the cap drops it; every
// response, a second answer to one request included, must reach its
// client the same latency after the worker sent it, in send order.
func TestLegsDeliverInSendOrderAtLatency(t *testing.T) {
	const grid = 500 * time.Nanosecond
	p := params.Default()
	drops := uint64(0)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		cfg := Config{Kind: Kind(rng.Intn(3)), InitialWorkers: 1 + rng.Intn(3)}
		cfg.MaxWorkers = cfg.InitialWorkers
		if cfg.Kind == KIngress {
			cfg.QueueCap = 1 + rng.Intn(4)
		}
		be := &delayBackend{eng: eng, rng: rng, grid: grid}
		g := New(eng, p, cfg, be)
		lat := g.in.latency
		type sent struct {
			x  *Exchange
			at time.Duration
		}
		var (
			submitAt                 []time.Duration // by ID-1
			sends                    []sent
			arrived, landed, replies int
			echoes                   int
			fail                     string
		)
		failf := func(format string, args ...any) {
			if fail == "" {
				fail = fmt.Sprintf(format, args...)
			}
		}
		var reply func(Response)
		submit := func(client int) {
			g.Submit(Request{Client: client, Bytes: 64, RespBytes: 64, Stamp: eng.Now(), Reply: reply})
			submitAt = append(submitAt, eng.Now())
		}
		// A reply submits once more, a bounded number of times per run.
		reply = func(Response) {
			replies++
			if echoes < 20 && rng.Intn(3) == 0 {
				echoes++
				submit(rng.Intn(8))
			}
		}
		in := g.in.arrive
		g.in.arrive = func(x *Exchange) {
			arrived++
			if x.ID != uint64(arrived) {
				failf("request %d arrived %d-th", x.ID, arrived)
			} else if want := submitAt[x.ID-1] + lat; eng.Now() != want {
				failf("request %d arrived at %v, want %v", x.ID, eng.Now(), want)
			}
			dropped := g.Dropped()
			in(x)
			if w := g.pick(x.Client); g.Dropped() == dropped && (w.q.Len() == 0 || w.q.At(w.q.Len()-1) != x) {
				failf("request %d is not at the back of its worker's queue", x.ID)
			}
		}
		for _, w := range g.workers {
			w, sentFn := w, w.respSentFn
			w.respSentFn = func() {
				sends = append(sends, sent{w.x, eng.Now()})
				sentFn()
			}
		}
		out := g.out.arrive
		g.out.arrive = func(x *Exchange) {
			if landed >= len(sends) || sends[landed].x != x {
				failf("response %d to land is not the %d-th sent", x.ID, landed+1)
			} else if want := sends[landed].at + lat; eng.Now() != want || x.t0 != sends[landed].at {
				failf("response %d sent at %v landed at %v, want %v (its record says sent at %v)", x.ID, sends[landed].at, eng.Now(), want, x.t0)
			}
			landed++
			out(x)
		}
		for i := 0; i < 60; i++ {
			burst, client := 1+rng.Intn(3), rng.Intn(8)
			eng.At(time.Duration(rng.Intn(80))*grid, func() {
				for k := 0; k < burst; k++ {
					submit(client + k)
				}
			})
		}
		eng.Run()
		eng.Stop()
		if fail == "" {
			switch n := len(submitAt); {
			case arrived != n:
				fail = fmt.Sprintf("%d of %d requests arrived", arrived, n)
			case be.forwards != n-int(g.Dropped()):
				fail = fmt.Sprintf("%d forwarded of %d arrived, %d dropped", be.forwards, n, g.Dropped())
			case len(sends) != be.answers || landed != be.answers || replies != be.answers:
				fail = fmt.Sprintf("%d answers, %d sent back, %d landed, %d replies", be.answers, len(sends), landed, replies)
			}
		}
		if fail != "" {
			t.Fatalf("seed %d (%v, %d workers, cap %d): %s", seed, cfg.Kind, cfg.InitialWorkers, cfg.QueueCap, fail)
		}
		drops += g.Dropped()
	}
	if drops == 0 {
		t.Fatal("no schedule reached a K-Ingress queue cap")
	}
}
