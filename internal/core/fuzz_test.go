package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadConfig hammers the JSON cluster-config loader with arbitrary
// bytes. Properties: never panic; anything accepted must satisfy Validate
// (LoadConfig promises validated output) and be buildable-shaped (nodes and
// functions present, chains resolvable, tenant weights within
// [0, MaxTenantWeight]).
func FuzzLoadConfig(f *testing.F) {
	// Seed with the shipped sample configs so the fuzzer starts from deep
	// valid structures rather than discovering JSON syntax from scratch.
	for _, name := range []string{"sample-cluster.json", "boutique.json"} {
		if b, err := os.ReadFile(filepath.Join("..", "..", "configs", name)); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"system":"nadino-dne","nodes":["n1"],"functions":[{"name":"f","node":"n1","service":"10us"}]}`))
	f.Add([]byte(`{"system":"spright","nodes":["n1"],"functions":[{"name":"f","node":"elsewhere"}]}`))
	f.Add([]byte(`{"system":"nadino-dne","nodes":["n1","n1"],"functions":[{"name":"f","node":"n1"}]}`))
	f.Add([]byte(`{"system":"nadino-dne","nodes":["n1"],"functions":[{"name":"f","node":"n1"}],` +
		`"chains":[{"name":"c","entry":"f","calls":[{"callee":"ghost"}]}]}`))
	f.Add([]byte(`{"system":"nadino-dne","unknown_field":1}`))
	f.Add([]byte(`{"system":"nadino-dne","functions":[{"service":"not-a-duration"}]}`))
	// A negative default-tenant weight once panicked NewCluster; 2^53
	// overflowed the DWRR quantum and hung the engine.
	f.Add([]byte(`{"system":"nadino-dne","tenant":"t","tenants":[{"name":"t","weight":-1}],` +
		`"nodes":["n1"],"functions":[{"name":"f","node":"n1"}]}`))
	f.Add([]byte(`{"system":"nadino-dne","tenant":"t","tenants":[{"name":"t","weight":9007199254740992}],` +
		`"nodes":["n1"],"functions":[{"name":"f","node":"n1"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := LoadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("LoadConfig accepted a config Validate rejects: %v\ninput: %q", err, data)
		}
		if len(cfg.Nodes) == 0 || len(cfg.Functions) == 0 {
			t.Fatalf("accepted config with %d nodes / %d functions: %q",
				len(cfg.Nodes), len(cfg.Functions), data)
		}
		for _, ts := range cfg.Tenants {
			if ts.Weight < 0 || ts.Weight > MaxTenantWeight {
				t.Fatalf("accepted tenant %q with weight %d: %q", ts.Name, ts.Weight, data)
			}
		}
	})
}
