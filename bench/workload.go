package main

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"nadino/internal/core"
	"nadino/internal/flightrec"
	"nadino/internal/ingress"
	"nadino/internal/telemetry"
)

// The cluster configs are checked in and parsed by core.LoadConfig, the
// same fuzzed path every other config takes.
//
//go:embed workloads/*.json
var configFS embed.FS

// workload is one traffic mix: a checked-in cluster config and the load the
// benchmark offers it. Every client is a proc-free engine callback, so the
// benchmark adds no goroutine handoffs of its own. All inputs (arrival
// times, chain picks) come from the replica's seed.
type workload struct {
	name   string
	window time.Duration // measured virtual time per replica
	// load builds the replica's clients before setup and returns the
	// function that starts them once the cluster is ready.
	load func(r *replica) (start func())
}

// workloads are run in this order when no -workload is given. Why each one
// exists is recorded in README.md.
var workloads = []*workload{
	{
		// The paper's headline application (NADINO-DNE, 2 nodes, 10
		// functions); the function cores saturate, so vrps is modeled
		// capacity.
		name:   "boutique-closed",
		window: 300 * time.Millisecond,
		load:   closedLoop(32, []weighted{{"home-query", 3}, {"place-order", 1}}),
	},
	{
		// Smallest message, one backend round trip: ingress and transport
		// cost per request dominate. 40K rps keeps the two ingress workers
		// below saturation.
		name:   "ingress-echo",
		window: time.Second,
		load:   poissonLoad(40000, 0, false),
	},
	{
		// Three DWRR tenants on a 4-node gateway fabric with hedging,
		// telemetry and the flight recorder: the only workload that runs
		// gateway, fabric, speculate, telemetry and flightrec.
		name:   "fabric-mt",
		window: 500 * time.Millisecond,
		load:   poissonLoad(15000, 0.8, true),
	},
	{
		// 100k live think timers on 16 nodes: event-core cost per event
		// dominates while the data path per request stays light.
		name:   "scale-open",
		window: 500 * time.Millisecond,
		load:   thinkLoad(100000, 10*time.Second),
	},
}

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// config loads the workload's cluster definition with the replica's seed.
func (wl *workload) config(seed int64) (core.Config, error) {
	raw, err := configFS.ReadFile("workloads/" + wl.name + ".json")
	if err != nil {
		return core.Config{}, err
	}
	cfg, err := core.LoadConfig(bytes.NewReader(raw))
	if err != nil {
		return core.Config{}, fmt.Errorf("%s: %w", wl.name, err)
	}
	cfg.Seed = seed
	return cfg, nil
}

// weighted is one chain's share of a mix.
type weighted struct {
	chain  string
	weight float64
}

// chainMix draws chains by weight.
type chainMix struct {
	chains []string
	cum    []float64 // cumulative weights, normalized to end at 1
}

func newMix(ws []weighted) chainMix {
	var m chainMix
	var total float64
	for _, w := range ws {
		total += w.weight
		m.chains = append(m.chains, w.chain)
		m.cum = append(m.cum, total)
	}
	for i := range m.cum {
		m.cum[i] /= total
	}
	return m
}

func (m chainMix) pick(rng *rand.Rand) string {
	i := sort.SearchFloat64s(m.cum, rng.Float64())
	if i == len(m.cum) {
		i--
	}
	return m.chains[i]
}

// zipfMix weights the config's chains by Zipf(s) popularity in
// declaration order.
func zipfMix(chains []core.ChainSpec, s float64) chainMix {
	ws := make([]weighted, len(chains))
	for i, ch := range chains {
		ws[i] = weighted{ch.Name, 1 / math.Pow(float64(i+1), s)}
	}
	return newMix(ws)
}

// closedClient sends its next request from the reply callback of the
// previous one (zero think time).
type closedClient struct {
	r       *replica
	id      int
	mix     *chainMix
	onReply func(ingress.Response)
}

func (cl *closedClient) issue() { cl.r.submit(cl.mix.pick(cl.r.rng), cl.id, cl.onReply) }

func (cl *closedClient) reply(resp ingress.Response) {
	cl.r.observe(resp)
	if cl.r.issuing() {
		cl.issue()
	}
}

// closedLoop runs n closed-loop clients, each request drawing its chain
// from ws.
func closedLoop(n int, ws []weighted) func(r *replica) func() {
	return func(r *replica) func() {
		mix := newMix(ws)
		clients := make([]*closedClient, n)
		for i := range clients {
			cl := &closedClient{r: r, id: i, mix: &mix}
			cl.onReply = cl.reply
			clients[i] = cl
		}
		return func() {
			for _, cl := range clients {
				r.eng.At(r.eng.Now(), cl.issue)
			}
		}
	}
}

// poissonGen is an open-loop source: one arrival event at a time, each due
// an exponential gap after the previous one, so the generator keeps a
// single pending event whatever the rate.
type poissonGen struct {
	r    *replica
	rate float64 // arrivals per virtual second
	mix  chainMix
	due  time.Duration
	next int // client id for RSS steering
	fire func()
}

func (g *poissonGen) arrive() {
	g.r.checkDue(g.due)
	g.r.submit(g.mix.pick(g.r.rng), g.next, g.r.onReply)
	g.next++
	g.schedule()
}

func (g *poissonGen) schedule() {
	g.due += time.Duration(g.r.rng.ExpFloat64() / g.rate * float64(time.Second))
	if g.due < g.r.winEnd {
		g.r.eng.At(g.due, g.fire)
	}
}

// poissonLoad offers rps Poisson arrivals spread over the config's chains
// with Zipf(zipfS) popularity. observe also runs a 1 ms telemetry scraper
// and attaches a flight recorder.
func poissonLoad(rps, zipfS float64, observe bool) func(r *replica) func() {
	return func(r *replica) func() {
		g := &poissonGen{r: r, rate: rps, mix: zipfMix(r.cfg.Chains, zipfS)}
		g.fire = g.arrive
		return func() {
			if observe {
				reg := telemetry.NewRegistry()
				r.c.Instrument(reg)
				reg.Scrape(r.eng, time.Millisecond)
				r.rec = flightrec.New(0, r.eng.Now)
				r.c.AttachFlightRecorder(r.rec)
			}
			g.due = r.eng.Now()
			g.schedule()
		}
	}
}

// thinker is one open-loop user: it sends a request, then the next one an
// exponential think time later whether or not the reply has come back. Its
// next request is always a pending timer, so n users keep n timers live.
type thinker struct {
	r     *replica
	id    int
	chain string
	think time.Duration
	due   time.Duration
	fire  func()
}

func (t *thinker) arrive() {
	if !t.r.issuing() {
		return
	}
	t.r.checkDue(t.due)
	t.r.submit(t.chain, t.id, t.r.onReply)
	t.due += time.Duration(t.r.rng.ExpFloat64() * float64(t.think))
	t.r.eng.At(t.due, t.fire)
}

// thinkLoad spreads n think-time users round-robin over the config's
// chains, their first requests staggered over one think interval.
func thinkLoad(n int, think time.Duration) func(r *replica) func() {
	return func(r *replica) func() {
		users := make([]thinker, n)
		for i := range users {
			t := &users[i]
			*t = thinker{r: r, id: i, chain: r.cfg.Chains[i%len(r.cfg.Chains)].Name, think: think}
			t.fire = t.arrive
		}
		return func() {
			now := r.eng.Now()
			for i := range users {
				t := &users[i]
				t.due = now + time.Duration(r.rng.Float64()*float64(think))
				r.eng.At(t.due, t.fire)
			}
		}
	}
}
