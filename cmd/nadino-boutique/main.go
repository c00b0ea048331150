// Command nadino-boutique runs the Online Boutique workload (§4.3) on a
// chosen serverless data plane and reports throughput, latency and
// data-plane processor usage.
//
// Usage:
//
//	nadino-boutique -system nadino-dne -chain home-query -clients 60
//	nadino-boutique -system spright -chain view-cart -clients 20 -dur 500ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nadino/internal/boutique"
	"nadino/internal/core"
	"nadino/internal/workload"
)

func main() {
	sysName := flag.String("system", "nadino-dne", "data plane: "+strings.Join(core.SystemNames(), ", "))
	chain := flag.String("chain", boutique.HomeQuery, "chain: home-query, view-cart, product-query, place-order")
	clients := flag.Int("clients", 20, "closed-loop clients")
	dur := flag.Duration("dur", 300*time.Millisecond, "measurement window (simulated time)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	sys, err := core.ParseSystem(*sysName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nadino-boutique: %v\n", err)
		os.Exit(2)
	}

	c := core.NewCluster(boutique.ClusterConfig(sys, *seed))
	defer c.Eng.Stop()
	if _, ok := c.ChainLatency[*chain]; !ok {
		fmt.Fprintf(os.Stderr, "nadino-boutique: unknown chain %q\n", *chain)
		os.Exit(2)
	}
	d := &workload.Driver{Chains: []string{*chain}, Clients: *clients, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)

	warm := c.P.QPSetupTime + 10*time.Millisecond
	c.Eng.RunUntil(warm)
	c.Completed.MarkWindow(c.Eng.Now())
	hist := c.ChainLatency[*chain]
	hist.Reset()
	c.Eng.RunUntil(warm + *dur)

	elapsed := c.Eng.Now() - c.P.QPSetupTime
	net := c.NetCPUStats(elapsed)
	engineKind := "CPU"
	if net.OnDPU {
		engineKind = "DPU"
	}
	fmt.Printf("system   : %v\n", sys)
	fmt.Printf("chain    : %s (%d data exchanges)\n", *chain, chainExchanges(*chain))
	fmt.Printf("clients  : %d (closed loop)\n", *clients)
	fmt.Printf("RPS      : %.0f\n", c.Completed.WindowRate(c.Eng.Now()))
	fmt.Printf("latency  : mean %v  p50 %v  p99 %v\n", hist.Mean(), hist.P50(), hist.P99())
	fmt.Printf("dataplane: %.0f pinned %s cores (%.2f useful) + %.2f cores on function hosts\n",
		net.PinnedCores, engineKind, net.PinnedUseful, net.FnCores)
	fmt.Printf("app CPU  : %.2f cores\n", c.AppCPUCores(elapsed))
}

func chainExchanges(name string) int {
	for _, ch := range boutique.Chains() {
		if ch.Name == name {
			return core.Exchanges(ch.Calls)
		}
	}
	return 0
}
