// Ingress: NADINO's HTTP/TCP->RDMA gateway under a rising load, with the
// hysteresis autoscaler adding busy-polling workers as demand grows and
// removing them when it fades — a miniature of Fig. 14.
package main

import (
	"fmt"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/params"
	"nadino/internal/sim"
	"nadino/internal/workload"
)

func main() {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()

	backend := ingress.DefaultEchoBackend(eng, p, ingress.Nadino, 16)
	gw := ingress.New(eng, p, ingress.Config{
		Kind:           ingress.Nadino,
		InitialWorkers: 1,
		MaxWorkers:     8,
		AutoScale:      true,
	}, backend)
	gw.StartRecorder(250 * time.Millisecond)

	clients := workload.NewClientPool(eng, gw, 512, 512)
	clients.ConnsPerClient = 16
	clients.OpenLoopRate = 40000
	// One more saturating client every second; they all stop at 6s.
	clients.RampUp(5, time.Second)
	eng.At(6*time.Second, clients.Stop)
	eng.RunUntil(10 * time.Second)

	fmt.Println("time   workers  cores-in-use  RPS")
	for ts := 500 * time.Millisecond; ts <= 10*time.Second; ts += 500 * time.Millisecond {
		fmt.Printf("%5.1fs  %7.0f  %12.1f  %s\n",
			ts.Seconds(),
			gw.WorkersSeries.At(ts),
			gw.CPUSeries.At(ts),
			fmtRPS(gw.RPSSeries.At(ts)))
	}
	fmt.Printf("\nserved %d requests; scale events: %d\n", gw.Served(), gw.ScaleEvents())
	fmt.Println("the gateway rode the load up and back down — busy-poll performance,")
	fmt.Println("elastic CPU footprint (§3.6).")
}

func fmtRPS(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.1fK", v/1000)
	}
	return fmt.Sprintf("%.0f", v)
}
