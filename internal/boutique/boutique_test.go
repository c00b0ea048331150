package boutique

import (
	"testing"
	"time"

	"nadino/internal/core"
	"nadino/internal/workload"
)

func TestChainsExceedElevenExchanges(t *testing.T) {
	for _, ch := range Chains() {
		if ch.Name == PlaceOrder {
			continue // not one of the measured chains
		}
		if got := core.Exchanges(ch.Calls); got < 12 {
			t.Errorf("chain %s has %d exchanges, want > 11", ch.Name, got)
		}
	}
}

func TestHotspotPlacement(t *testing.T) {
	hot := map[string]bool{"frontend": true, "checkout": true, "recommendation": true}
	for _, f := range Functions() {
		if hot[f.Name] && f.Node != Node1 {
			t.Errorf("hotspot %s placed on %s, want %s", f.Name, f.Node, Node1)
		}
		if !hot[f.Name] && f.Node != Node2 {
			t.Errorf("%s placed on %s, want %s", f.Name, f.Node, Node2)
		}
	}
	if len(Functions()) != 10 {
		t.Fatalf("boutique has %d functions, want 10", len(Functions()))
	}
}

func TestCalleesExist(t *testing.T) {
	known := map[string]bool{}
	for _, f := range Functions() {
		known[f.Name] = true
	}
	var check func(calls []core.Call)
	check = func(calls []core.Call) {
		for _, c := range calls {
			if !known[c.Callee] {
				t.Errorf("call to unknown function %q", c.Callee)
			}
			check(c.Calls)
		}
	}
	for _, ch := range Chains() {
		if !known[ch.Entry] {
			t.Errorf("chain %s entry %q unknown", ch.Name, ch.Entry)
		}
		check(ch.Calls)
	}
}

func TestBoutiqueRunsOnNadino(t *testing.T) {
	c := core.NewCluster(ClusterConfig(core.NadinoDNE, 1))
	defer c.Eng.Stop()
	d := &workload.Driver{Chains: MeasuredChains(), Clients: 8, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	c.Eng.RunUntil(300 * time.Millisecond)
	if c.Completed.Total() < 100 {
		t.Fatalf("completed %d boutique requests", c.Completed.Total())
	}
	for _, ch := range MeasuredChains() {
		h := c.ChainLatency[ch]
		if h.Count() == 0 {
			t.Errorf("chain %s never completed", ch)
			continue
		}
		if h.Mean() > 5*time.Millisecond {
			t.Errorf("chain %s mean latency %v implausibly high at light load", ch, h.Mean())
		}
	}
}
