// Package workload provides the load generators used across experiments:
// one engine-callback Driver for wrk-style closed-loop clients (§4.1.3,
// §4.3) and open-loop arrivals (paced, synthetic trace or recorded replay),
// plus the multi-connection client pool and ramp-up schedule against an
// ingress gateway (Fig. 14).
package workload

import (
	"time"

	"nadino/internal/ingress"
	"nadino/internal/metrics"
	"nadino/internal/sim"
)

// ClientPool is a set of HTTP clients against an ingress gateway. Each
// client holds ConnsPerClient concurrent connections (wrk drives many
// connections per client thread, §4.1.3); in closed-loop mode each
// connection keeps one request outstanding.
type ClientPool struct {
	eng *sim.Engine
	gw  *ingress.Gateway

	ReqBytes  int
	RespBytes int
	// ConnsPerClient is the concurrent connections each client drives
	// (default 1).
	ConnsPerClient int
	// Timeout counts an open-loop request that gets no response in time as
	// a disconnection (0 = never) — the paper's overloaded K-Ingress loses
	// "most of the clients ... due to the lack of a response" (Fig. 14).
	Timeout time.Duration
	// OpenLoopRate, when positive, switches each client to open-loop
	// generation at this request rate (req/s) across its connections,
	// like a wrk client pinned to a core: it keeps offering load whether
	// or not responses return, which is what overloads the kernel ingress
	// in Fig. 14.
	OpenLoopRate float64

	Latency   *metrics.Hist
	Completed *metrics.Meter

	nClients     int
	nConns       int
	disconnected int
	drivers      []*Driver
}

// NewClientPool returns an empty pool targeting gw with the given payload
// sizes.
func NewClientPool(eng *sim.Engine, gw *ingress.Gateway, reqBytes, respBytes int) *ClientPool {
	return &ClientPool{
		eng:       eng,
		gw:        gw,
		ReqBytes:  reqBytes,
		RespBytes: respBytes,
		Latency:   metrics.NewHist(),
		Completed: metrics.NewMeter(),
	}
}

// AddClient starts one client (all its connections) now.
func (cp *ClientPool) AddClient() {
	cp.nClients++
	conns := max(cp.ConnsPerClient, 1)
	base := cp.nConns
	cp.nConns += conns
	d := &Driver{Clients: conns}
	if cp.OpenLoopRate > 0 {
		// The first request goes out now, then one every gap plus a slight
		// jitter that decorrelates generators, round-robin over the
		// client's connections for RSS.
		gap := time.Duration(float64(time.Second) / cp.OpenLoopRate)
		d = &Driver{Think: func(_, n int) time.Duration {
			if n == 0 {
				return 0
			}
			return gap + time.Duration(cp.eng.Rand().Intn(int(gap/8)+1))
		}}
	}
	d.Start(cp.eng, func(_ string, i, _ int, _ time.Duration, reply func(ingress.Response)) {
		start, answered := cp.eng.Now(), false
		cp.gw.Submit(ingress.Request{
			Client:    base + i%conns,
			Bytes:     cp.ReqBytes,
			RespBytes: cp.RespBytes,
			Stamp:     start,
			Reply: func(r ingress.Response) {
				answered = true
				cp.Latency.Observe(cp.eng.Now() - start)
				cp.Completed.Inc(1)
				if reply != nil {
					reply(r)
				}
			},
		})
		if cp.Timeout > 0 && cp.OpenLoopRate > 0 {
			cp.eng.After(cp.Timeout, func() {
				if !answered {
					cp.disconnected++
				}
			})
		}
	})
	cp.drivers = append(cp.drivers, d)
}

// Disconnected reports open-loop requests that timed out.
func (cp *ClientPool) Disconnected() int { return cp.disconnected }

// AddClients starts n clients.
func (cp *ClientPool) AddClients(n int) {
	for i := 0; i < n; i++ {
		cp.AddClient()
	}
}

// RampUp adds a client every interval until total clients are running —
// the Fig. 14 load schedule ("adding a client every 10 seconds").
func (cp *ClientPool) RampUp(total int, every time.Duration) {
	cp.AddClient()
	added := 1
	var stop func()
	stop = cp.eng.Ticker(every, func(time.Duration) {
		if added >= total {
			stop()
			return
		}
		cp.AddClient()
		added++
	})
}

// Stop makes clients issue no more requests; those in flight complete.
func (cp *ClientPool) Stop() {
	for _, d := range cp.drivers {
		d.Stop()
	}
}

// Clients reports how many clients have been started.
func (cp *ClientPool) Clients() int { return cp.nClients }
