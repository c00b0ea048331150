// Quickstart: deploy two functions on two worker nodes behind NADINO's
// data plane, invoke a chain through the HTTP/TCP->RDMA ingress, and print
// what happened.
//
// This exercises the whole stack end to end: the gateway converts the
// request to RDMA at the cluster edge, the entry function's node receives
// it zero-copy in its tenant pool, the inter-node hop flows through both
// DPU network engines over two-sided RDMA, and the intra-node hop uses
// SK_MSG descriptor passing with token-based ownership transfer.
package main

import (
	"fmt"
	"time"

	"nadino/internal/core"
	"nadino/internal/workload"
)

func main() {
	cfg := core.Config{
		System: core.NadinoDNE,
		Nodes:  []string{"node1", "node2"},
		Functions: []core.FunctionSpec{
			{Name: "hello", Node: "node1", Service: 20 * time.Microsecond},
			{Name: "world", Node: "node2", Service: 15 * time.Microsecond},
		},
		Chains: []core.ChainSpec{{
			Name: "greet", Entry: "hello", ReqBytes: 256, RespBytes: 1024,
			Calls: []core.Call{
				{Callee: "world", ReqBytes: 512, RespBytes: 2048},
			},
		}},
	}
	c := core.NewCluster(cfg)
	defer c.Eng.Stop()

	// One closed-loop client sends 1000 requests, one at a time, once the
	// cluster's connections are up.
	client := &workload.Driver{Chains: []string{"greet"}, Clients: 1, Requests: 1000, Ready: c.OnReady}
	client.Start(c.Eng, c.SubmitChainSpec)
	// The cluster's engines poll forever; run until the client is done.
	c.Eng.RunUntil(10 * time.Second)

	h := c.ChainLatency["greet"]
	fmt.Printf("completed %d requests over the NADINO data plane\n", h.Count())
	fmt.Printf("end-to-end latency: mean %v, p99 %v\n", h.Mean(), h.P99())
	for _, node := range []string{"node1", "node2"} {
		tx, rx, _, _, _ := c.Engine(node).Stats()
		fmt.Printf("DNE@%s handled %d TX / %d RX descriptors on its DPU core\n", node, tx, rx)
	}
}
