// Boutique: run the paper's Online Boutique workload (10 microservices,
// §4.3) on NADINO and on SPRIGHT, and compare throughput and latency for
// the Home Query chain — a miniature of Fig. 16 / Table 2.
package main

import (
	"fmt"
	"time"

	"nadino/internal/boutique"
	"nadino/internal/core"
	"nadino/internal/workload"
)

func run(sys core.System, clients int, dur time.Duration) (float64, time.Duration) {
	c := core.NewCluster(boutique.ClusterConfig(sys, 1))
	defer c.Eng.Stop()
	d := &workload.Driver{Chains: []string{boutique.HomeQuery}, Clients: clients, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	warm := c.P.QPSetupTime + 10*time.Millisecond
	c.Eng.RunUntil(warm)
	c.Completed.MarkWindow(c.Eng.Now())
	c.ChainLatency[boutique.HomeQuery].Reset()
	c.Eng.RunUntil(warm + dur)
	return c.Completed.WindowRate(c.Eng.Now()), c.ChainLatency[boutique.HomeQuery].Mean()
}

func main() {
	const clients = 60
	fmt.Printf("Online Boutique, %s chain, %d clients:\n", boutique.HomeQuery, clients)
	for _, sys := range []core.System{core.NadinoDNE, core.NadinoCNE, core.Spright, core.NightCore} {
		rps, lat := run(sys, clients, 200*time.Millisecond)
		fmt.Printf("  %-13s %8.0f RPS   mean latency %v\n", sys.String(), rps, lat)
	}
	fmt.Println("\n(NADINO's DPU engine wins by terminating TCP at the edge and moving")
	fmt.Println(" every inter-node hop over two-sided RDMA, zero copy end to end.)")
}
