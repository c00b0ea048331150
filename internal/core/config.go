package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"nadino/internal/speculate"
)

// systemNames maps config strings to systems.
var systemNames = map[string]System{
	"nadino-dne": NadinoDNE,
	"nadino-cne": NadinoCNE,
	"fuyao-f":    FuyaoF,
	"fuyao-k":    FuyaoK,
	"spright":    Spright,
	"nightcore":  NightCore,
	"junction":   Junction,
}

// SystemNames lists the accepted system identifiers.
func SystemNames() []string {
	return []string{"nadino-dne", "nadino-cne", "fuyao-f", "fuyao-k", "spright", "nightcore", "junction"}
}

// ParseSystem resolves a config string like "nadino-dne".
func ParseSystem(s string) (System, error) {
	sys, ok := systemNames[strings.ToLower(strings.TrimSpace(s))]
	if !ok {
		return 0, fmt.Errorf("core: unknown system %q (want one of %s)", s, strings.Join(SystemNames(), ", "))
	}
	return sys, nil
}

// wireDuration accepts JSON durations as Go duration strings ("150us").
type wireDuration time.Duration

func (d *wireDuration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = wireDuration(v)
	return nil
}

// wireCall mirrors Call for JSON.
type wireCall struct {
	Callee    string     `json:"callee"`
	ReqBytes  int        `json:"req_bytes"`
	RespBytes int        `json:"resp_bytes"`
	Async     bool       `json:"async"`
	Calls     []wireCall `json:"calls"`
}

func (w wireCall) call() Call {
	c := Call{Callee: w.Callee, ReqBytes: w.ReqBytes, RespBytes: w.RespBytes, Async: w.Async}
	for _, sub := range w.Calls {
		c.Calls = append(c.Calls, sub.call())
	}
	return c
}

// wireConfig is the JSON shape of a cluster definition.
type wireConfig struct {
	System  string       `json:"system"`
	Tenant  string       `json:"tenant"`
	Tenants []TenantSpec `json:"tenants"`
	Nodes   []string     `json:"nodes"`

	Functions []struct {
		Name              string       `json:"name"`
		Tenant            string       `json:"tenant"`
		Node              string       `json:"node"`
		Service           wireDuration `json:"service"`
		Workers           int          `json:"workers"`
		ColdStart         wireDuration `json:"cold_start"`
		KeepWarm          wireDuration `json:"keep_warm"`
		MaxScale          int          `json:"max_scale"`
		TargetConcurrency int          `json:"target_concurrency"`
	} `json:"functions"`

	Chains []struct {
		Name      string     `json:"name"`
		Tenant    string     `json:"tenant"`
		Entry     string     `json:"entry"`
		ReqBytes  int        `json:"req_bytes"`
		RespBytes int        `json:"resp_bytes"`
		Calls     []wireCall `json:"calls"`
	} `json:"chains"`

	IngressWorkers   int  `json:"ingress_workers"`
	IngressAutoScale bool `json:"ingress_autoscale"`
	IngressMax       int  `json:"ingress_max"`
	Gateways         bool `json:"gateways"`
	GatewayWindow    int  `json:"gateway_window"`

	// Speculation and core-discipline knobs (see internal/speculate and
	// sim.Discipline).
	SpecClone    int          `json:"spec_clone"`
	SpecHedge    bool         `json:"spec_hedge"`
	SpecHedgeMin wireDuration `json:"spec_hedge_min"`
	SpecWindow   int          `json:"spec_window"`
	PSCores      bool         `json:"ps_cores"`

	Seed int64 `json:"seed"`
}

// LoadConfig parses a JSON cluster definition (see configs/ for samples)
// and validates it.
func LoadConfig(r io.Reader) (Config, error) {
	var w wireConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return Config{}, fmt.Errorf("core: parse config: %w", err)
	}
	sys, err := ParseSystem(w.System)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		System:           sys,
		Tenant:           w.Tenant,
		Tenants:          w.Tenants,
		Nodes:            w.Nodes,
		IngressWorkers:   w.IngressWorkers,
		IngressAutoScale: w.IngressAutoScale,
		IngressMax:       w.IngressMax,
		Gateways:         w.Gateways,
		GatewayWindow:    w.GatewayWindow,
		Speculate: speculate.Policy{
			CloneN:   w.SpecClone,
			Hedge:    w.SpecHedge,
			HedgeMin: time.Duration(w.SpecHedgeMin),
			Window:   w.SpecWindow,
		},
		PSCores: w.PSCores,
		Seed:    w.Seed,
	}
	for _, f := range w.Functions {
		cfg.Functions = append(cfg.Functions, FunctionSpec{
			Name:              f.Name,
			Tenant:            f.Tenant,
			Node:              f.Node,
			Service:           time.Duration(f.Service),
			Workers:           f.Workers,
			ColdStart:         time.Duration(f.ColdStart),
			KeepWarm:          time.Duration(f.KeepWarm),
			MaxScale:          f.MaxScale,
			TargetConcurrency: f.TargetConcurrency,
		})
	}
	for _, ch := range w.Chains {
		spec := ChainSpec{
			Name: ch.Name, Tenant: ch.Tenant, Entry: ch.Entry,
			ReqBytes: ch.ReqBytes, RespBytes: ch.RespBytes,
		}
		for _, c := range ch.Calls {
			spec.Calls = append(spec.Calls, c.call())
		}
		cfg.Chains = append(cfg.Chains, spec)
	}
	return cfg, cfg.Validate()
}

// MaxTenantWeight bounds a tenant's DWRR weight. The scheduler's quantum is
// weight times the per-unit byte quantum: far larger weights overflow it to
// zero and wedge the engine, and no sane share ratio needs them.
const MaxTenantWeight = 1 << 16

// checkWeight rejects weights outside [0, MaxTenantWeight] (0 means the
// default weight of 1).
func checkWeight(w int) error {
	if w < 0 || w > MaxTenantWeight {
		return fmt.Errorf("weight %d outside [0, %d]", w, MaxTenantWeight)
	}
	return nil
}

// checkSizes rejects a message size outside [0, math.MaxInt32]: a
// descriptor carries its length as an int32 (mempool.Descriptor.Len).
func checkSizes(req, resp int) error {
	for _, n := range [2]int{req, resp} {
		if n < 0 || n > math.MaxInt32 {
			return fmt.Errorf("message size %d outside [0, %d]", n, math.MaxInt32)
		}
	}
	return nil
}

// Validate checks a configuration for structural errors before it is used
// to build a cluster (NewCluster panics on malformed input; Validate turns
// the common mistakes into errors first).
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("core: config has no nodes")
	}
	for _, ts := range c.Tenants {
		if err := checkWeight(ts.Weight); err != nil {
			return fmt.Errorf("core: tenant %q: %w", ts.Name, err)
		}
	}
	if len(c.Functions) == 0 {
		return fmt.Errorf("core: config has no functions")
	}
	nodes := map[string]bool{}
	for _, n := range c.Nodes {
		if nodes[n] {
			return fmt.Errorf("core: duplicate node %q", n)
		}
		nodes[n] = true
	}
	fns := map[string]bool{}
	for _, f := range c.Functions {
		if f.Name == "" {
			return fmt.Errorf("core: function with empty name")
		}
		if fns[f.Name] {
			return fmt.Errorf("core: duplicate function %q", f.Name)
		}
		fns[f.Name] = true
		if !c.System.SingleNode() && !nodes[f.Node] {
			return fmt.Errorf("core: function %q placed on unknown node %q", f.Name, f.Node)
		}
	}
	var checkCalls func(chain string, calls []Call) error
	checkCalls = func(chain string, calls []Call) error {
		for _, call := range calls {
			if !fns[call.Callee] {
				return fmt.Errorf("core: chain %q calls unknown function %q", chain, call.Callee)
			}
			if err := checkSizes(call.ReqBytes, call.RespBytes); err != nil {
				return fmt.Errorf("core: chain %q call to %q: %w", chain, call.Callee, err)
			}
			if err := checkCalls(chain, call.Calls); err != nil {
				return err
			}
		}
		return nil
	}
	chains := map[string]bool{}
	for _, ch := range c.Chains {
		if chains[ch.Name] {
			return fmt.Errorf("core: duplicate chain %q", ch.Name)
		}
		chains[ch.Name] = true
		if !fns[ch.Entry] {
			return fmt.Errorf("core: chain %q entry %q unknown", ch.Name, ch.Entry)
		}
		if err := checkSizes(ch.ReqBytes, ch.RespBytes); err != nil {
			return fmt.Errorf("core: chain %q: %w", ch.Name, err)
		}
		if err := checkCalls(ch.Name, ch.Calls); err != nil {
			return err
		}
	}
	return nil
}
