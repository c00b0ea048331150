package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"nadino/internal/speculate"
	"nadino/internal/workload"
)

var updateFingerprint = flag.Bool("update", false, "rewrite testdata/runtime_fingerprint.golden")

// fingerprintConfig is one world that reaches every function-runtime path:
// a synchronous call with a nested synchronous call, an async fan-out group
// (one branch on an autoscaled function), a cross-tenant call, cold starts
// under a keep-warm window, and two autoscaled ingress workers with clone 2
// plus hedging.
func fingerprintConfig(sys System, ps bool) Config {
	return Config{
		System:  sys,
		Tenant:  "tenant_a",
		Tenants: []TenantSpec{{Name: "tenant_a", Weight: 2}, {Name: "tenant_b", Weight: 1}},
		Nodes:   []string{"node1", "node2"},
		Functions: []FunctionSpec{
			{Name: "front", Node: "node1", Service: 10 * time.Microsecond, Workers: 6,
				ColdStart: 40 * time.Microsecond, KeepWarm: 120 * time.Microsecond},
			{Name: "mid", Node: "node2", Service: 15 * time.Microsecond, Workers: 4},
			{Name: "leaf", Node: "node1", Service: 8 * time.Microsecond, Workers: 2},
			{Name: "fan1", Node: "node2", Service: 20 * time.Microsecond, Workers: 2},
			{Name: "fan2", Node: "node1", Service: 12 * time.Microsecond, Workers: 2},
			{Name: "scaled", Node: "node2", Service: 60 * time.Microsecond, Workers: 2,
				MaxScale: 3, TargetConcurrency: 1},
			{Name: "xt", Tenant: "tenant_b", Node: "node2", Service: 10 * time.Microsecond, Workers: 2},
		},
		Chains: []ChainSpec{
			{
				Name: "main", Entry: "front", ReqBytes: 512, RespBytes: 1024,
				Calls: []Call{
					{Callee: "mid", ReqBytes: 1024, RespBytes: 512,
						Calls: []Call{{Callee: "leaf", ReqBytes: 256, RespBytes: 256}}},
					{Callee: "fan1", ReqBytes: 256, RespBytes: 256, Async: true},
					{Callee: "fan2", ReqBytes: 256, RespBytes: 256, Async: true},
					{Callee: "scaled", ReqBytes: 256, RespBytes: 256, Async: true},
					{Callee: "xt", ReqBytes: 512, RespBytes: 512},
				},
			},
			{
				Name: "b-chain", Tenant: "tenant_b", Entry: "xt", ReqBytes: 256, RespBytes: 256,
			},
		},
		IngressWorkers:   2,
		IngressAutoScale: true,
		IngressMax:       3,
		AutoscaleEvery:   time.Millisecond,
		Speculate:        speculate.Policy{CloneN: 2, Hedge: true, HedgeMin: 300 * time.Microsecond},
		PSCores:          ps,
		Seed:             7,
	}
}

// fingerprintWindow is how long each fingerprint world runs.
const fingerprintWindow = 60 * time.Millisecond

// runFingerprintWorld drives cfg with 8 closed-loop clients, every third
// one thinking 0-400 µs between requests so handlers idle past keep-warm,
// and returns the cluster at the end of the window.
func runFingerprintWorld(cfg Config) *Cluster {
	c := NewCluster(cfg)
	d := &workload.Driver{
		Chains:  []string{"main", "main", "main", "b-chain"},
		Clients: 8,
		Think: func(client, n int) time.Duration {
			if client%3 != 0 {
				return 0
			}
			return time.Duration(n%5) * 100 * time.Microsecond
		},
		Ready: c.OnReady,
	}
	d.Start(c.Eng, c.SubmitChainSpec)
	c.Eng.RunUntil(fingerprintWindow)
	return c
}

// fingerprint renders what a run produced: completions, events fired,
// latency sums, data-plane CPU, cold starts, clone kills, and the scale
// and speculation counters that show each path ran.
func fingerprint(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%d fired=%d", c.Completed.Total(), c.Eng.Fired())
	for _, ch := range c.cfg.Chains {
		h := c.ChainLatency[ch.Name]
		fmt.Fprintf(&b, " %s=%d/%d", ch.Name, h.Count(), h.Sum())
	}
	n := c.NetCPUStats(c.Eng.Now())
	fmt.Fprintf(&b, " pinned=%v useful=%v fn=%v cold=%d kills=%d",
		n.PinnedCores, n.PinnedUseful, n.FnCores, c.ColdStarts(), c.SpecFnKills())
	ups, downs := c.Group("scaled").ScaleEvents()
	st := c.Gateway().Spec().Stats()
	fmt.Fprintf(&b, " scale=%d/%d ingress-scale=%d arms=%d hedges=%d",
		ups, downs, c.Gateway().ScaleEvents(), st.Arms, st.Hedges)
	return b.String()
}

// TestRuntimeFingerprint pins the function runtime's modeled behavior on
// every system, FCFS and PS cores, byte for byte against a golden file:
// any change to event order shows up in the fired-event count, the latency
// sums or the CPU accounting. Regenerate with -update only for a change
// that means to move modeled numbers.
func TestRuntimeFingerprint(t *testing.T) {
	var b strings.Builder
	for _, sys := range Systems() {
		for _, ps := range []bool{false, true} {
			c := runFingerprintWorld(fingerprintConfig(sys, ps))
			fmt.Fprintf(&b, "%s ps=%v %s\n", sys, ps, fingerprint(c))
			c.Eng.Stop()
		}
	}
	got := b.String()
	const golden = "testdata/runtime_fingerprint.golden"
	if *updateFingerprint {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("runtime fingerprint changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
