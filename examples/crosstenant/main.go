// Crosstenant: two tenants share the cluster. Within a tenant, functions
// exchange buffers zero copy; when tenant B's chain calls into tenant A's
// backend, the trusted sidecar copies the payload across the tenant
// boundary and the DWRR scheduler keeps their RDMA shares separate (§3.1).
package main

import (
	"fmt"
	"time"

	"nadino/internal/core"
	"nadino/internal/workload"
)

func main() {
	cfg := core.Config{
		System:  core.NadinoDNE,
		Tenant:  "tenant_a",
		Tenants: []core.TenantSpec{{Name: "tenant_a", Weight: 3}, {Name: "tenant_b", Weight: 1}},
		Nodes:   []string{"node1", "node2"},
		Functions: []core.FunctionSpec{
			{Name: "a-front", Tenant: "tenant_a", Node: "node1", Service: 15 * time.Microsecond},
			{Name: "a-back", Tenant: "tenant_a", Node: "node2", Service: 20 * time.Microsecond},
			{Name: "b-front", Tenant: "tenant_b", Node: "node1", Service: 15 * time.Microsecond},
		},
		Chains: []core.ChainSpec{
			{
				Name: "a-own", Tenant: "tenant_a", Entry: "a-front",
				ReqBytes: 512, RespBytes: 1024,
				Calls: []core.Call{{Callee: "a-back", ReqBytes: 2048, RespBytes: 2048}},
			},
			{
				// Tenant B consumes tenant A's backend service.
				Name: "b-borrows", Tenant: "tenant_b", Entry: "b-front",
				ReqBytes: 512, RespBytes: 1024,
				Calls: []core.Call{{Callee: "a-back", ReqBytes: 2048, RespBytes: 2048}},
			},
		},
	}
	c := core.NewCluster(cfg)
	defer c.Eng.Stop()

	// One closed-loop client per chain, 500 requests each.
	for _, chain := range []string{"a-own", "b-borrows"} {
		d := &workload.Driver{Chains: []string{chain}, Clients: 1, Requests: 500, Ready: c.OnReady}
		d.Start(c.Eng, c.SubmitChainSpec)
	}
	c.Eng.RunUntil(5 * time.Second)

	fmt.Println("two tenants, one cluster:")
	for _, chain := range []string{"a-own", "b-borrows"} {
		h := c.ChainLatency[chain]
		fmt.Printf("  %-10s %4d requests, mean latency %v\n", chain, h.Count(), h.Mean())
	}
	fmt.Printf("\nsidecar copies across the tenant boundary: %d\n", c.CrossTenantCopies())
	fmt.Println("(the a-own chain paid zero copies — same-tenant traffic stays zero copy;")
	fmt.Println(" b-borrows paid one copy per boundary crossing, enforced by the sidecar.)")
}
