package core

import (
	"strings"
	"testing"
	"time"

	"nadino/internal/workload"
)

const sampleConfig = `{
  "system": "nadino-dne",
  "tenant": "shop",
  "nodes": ["node1", "node2"],
  "functions": [
    {"name": "front", "node": "node1", "service": "25us", "workers": 16},
    {"name": "back", "node": "node2", "service": "100us", "workers": 4,
     "max_scale": 3, "target_concurrency": 4, "cold_start": "2ms", "keep_warm": "50ms"}
  ],
  "chains": [
    {"name": "main", "entry": "front", "req_bytes": 512, "resp_bytes": 2048,
     "calls": [
       {"callee": "back", "req_bytes": 1024, "resp_bytes": 1024, "async": true},
       {"callee": "back", "req_bytes": 1024, "resp_bytes": 1024, "async": true}
     ]}
  ],
  "ingress_workers": 2,
  "gateways": true,
  "gateway_window": 16,
  "seed": 7
}`

func TestLoadConfig(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.System != NadinoDNE || cfg.Tenant != "shop" || cfg.Seed != 7 {
		t.Fatalf("header mismatch: %+v", cfg)
	}
	if len(cfg.Functions) != 2 || len(cfg.Chains) != 1 {
		t.Fatalf("counts: %d fns, %d chains", len(cfg.Functions), len(cfg.Chains))
	}
	back := cfg.Functions[1]
	if back.Service != 100*time.Microsecond || back.MaxScale != 3 ||
		back.ColdStart != 2*time.Millisecond || back.KeepWarm != 50*time.Millisecond {
		t.Fatalf("back spec mismatch: %+v", back)
	}
	if !cfg.Chains[0].Calls[0].Async {
		t.Fatal("async flag lost")
	}
	if !cfg.Gateways || cfg.GatewayWindow != 16 {
		t.Fatalf("gateway config lost: gateways=%v window=%d", cfg.Gateways, cfg.GatewayWindow)
	}
}

func TestLoadedConfigRuns(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(cfg)
	defer c.Eng.Stop()
	d := &workload.Driver{Chains: []string{"main"}, Clients: 1, Requests: 50, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	c.Eng.RunUntil(2 * time.Second)
	if done := c.Completed.Total(); done != 50 {
		t.Fatalf("completed %d of 50", done)
	}
}

func TestParseSystem(t *testing.T) {
	for _, name := range SystemNames() {
		if _, err := ParseSystem(name); err != nil {
			t.Errorf("ParseSystem(%q): %v", name, err)
		}
	}
	if _, err := ParseSystem(" NADINO-DNE "); err != nil {
		t.Error("ParseSystem should be case/space tolerant")
	}
	if _, err := ParseSystem("openwhisk"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	base := func() Config {
		cfg, err := LoadConfig(strings.NewReader(sampleConfig))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = nil }},
		{"no functions", func(c *Config) { c.Functions = nil }},
		{"duplicate node", func(c *Config) { c.Nodes = append(c.Nodes, "node1") }},
		{"duplicate function", func(c *Config) { c.Functions = append(c.Functions, c.Functions[0]) }},
		{"bad placement", func(c *Config) { c.Functions[0].Node = "ghost" }},
		{"bad entry", func(c *Config) { c.Chains[0].Entry = "ghost" }},
		{"bad callee", func(c *Config) { c.Chains[0].Calls[0].Callee = "ghost" }},
		{"duplicate chain", func(c *Config) { c.Chains = append(c.Chains, c.Chains[0]) }},
		{"negative chain size", func(c *Config) { c.Chains[0].RespBytes = -1 }},
		{"negative call size", func(c *Config) { c.Chains[0].Calls[1].ReqBytes = -1 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", tc.name)
		}
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(sampleConfig, `"seed": 7`, `"sed": 7`, 1)
	if _, err := LoadConfig(strings.NewReader(bad)); err == nil {
		t.Fatal("typo'd field accepted")
	}
}

// TestLoadConfigRejectsOversizedMessages: a descriptor's length is an
// int32, so a size of 2 GiB or more would wrap to a negative length.
func TestLoadConfigRejectsOversizedMessages(t *testing.T) {
	for _, tc := range []struct{ old, new string }{
		{`"req_bytes": 512`, `"req_bytes": 2147483648`},
		{`"req_bytes": 1024, "resp_bytes": 1024, "async": true},
       {`, `"req_bytes": 1024, "resp_bytes": 4294967296, "async": true},
       {`},
	} {
		bad := strings.Replace(sampleConfig, tc.old, tc.new, 1)
		if bad == sampleConfig {
			t.Fatalf("%s: not found in the sample config", tc.old)
		}
		if _, err := LoadConfig(strings.NewReader(bad)); err == nil {
			t.Errorf("%s accepted", tc.new)
		}
	}
	ok := strings.Replace(sampleConfig, `"req_bytes": 512`, `"req_bytes": 2147483647`, 1)
	if _, err := LoadConfig(strings.NewReader(ok)); err != nil {
		t.Errorf("largest int32 size refused: %v", err)
	}
}

func TestLoadConfigRejectsBadDuration(t *testing.T) {
	bad := strings.Replace(sampleConfig, `"25us"`, `"25lightyears"`, 1)
	if _, err := LoadConfig(strings.NewReader(bad)); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// weightConfig is a one-node config whose default tenant carries weight.
func weightConfig(weight string) string {
	return `{"system":"nadino-dne","tenant":"t","tenants":[{"name":"t","weight":` + weight + `}],` +
		`"nodes":["n1"],"functions":[{"name":"f","node":"n1"}],` +
		`"chains":[{"name":"c","entry":"f","req_bytes":64,"resp_bytes":64}]}`
}

// TestTenantWeightBounds: weights cross two trust boundaries — config JSON
// and the management API — and both refuse negatives (which panicked
// NewCluster on the default tenant) and weights past MaxTenantWeight (2^53
// overflowed the DWRR quantum to zero and spun the engine forever). Weight
// 0 means the default weight of 1 for every tenant, the default included.
func TestTenantWeightBounds(t *testing.T) {
	for _, w := range []string{"-1", "9007199254740992", "65537"} {
		if _, err := LoadConfig(strings.NewReader(weightConfig(w))); err == nil {
			t.Errorf("LoadConfig accepted tenant weight %s", w)
		}
	}
	cfg, err := LoadConfig(strings.NewReader(weightConfig("0")))
	if err != nil {
		t.Fatalf("weight 0 rejected: %v", err)
	}
	c := NewCluster(cfg)
	t.Cleanup(c.Eng.Stop)
	if w := c.TenantWeights()[0].Weight; w != 1 {
		t.Fatalf("default tenant weight 0 normalised to %d, want 1", w)
	}
	for _, w := range []int{-1, 0, MaxTenantWeight + 1, 1 << 53} {
		if c.SetTenantWeight("t", w) {
			t.Errorf("SetTenantWeight accepted %d", w)
		}
	}
	if !c.SetTenantWeight("t", MaxTenantWeight) {
		t.Fatal("SetTenantWeight refused MaxTenantWeight")
	}
	// The largest weight still schedules: the engine keeps serving.
	c.Eng.Ticker(100*time.Microsecond, func(time.Duration) { c.SubmitChain("c", 0, nil) })
	c.Eng.RunUntil(c.P.QPSetupTime + 20*time.Millisecond)
	if c.Completed.Total() == 0 {
		t.Fatal("nothing completed at MaxTenantWeight")
	}
}
