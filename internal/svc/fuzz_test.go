package svc

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/core"
)

// apiPaths are the management endpoints that take a JSON POST body.
var apiPaths = []string{"/api/v1/tenants", "/api/v1/reroute", "/api/v1/watchdog", "/api/v1/chaos"}

// fuzzServer is a daemon around a two-tenant, gateway-tier cluster driven
// to readiness, never started: handlers run in-process through its mux.
func fuzzServer() *Server {
	clu := core.NewCluster(core.Config{
		System:   core.NadinoDNE,
		Tenants:  []core.TenantSpec{{Name: "gold", Weight: 4}},
		Nodes:    []string{"node1", "node2"},
		Gateways: true,
		Functions: []core.FunctionSpec{
			{Name: "hello", Node: "node1", Service: 20 * time.Microsecond},
			{Name: "world", Node: "node2", Service: 15 * time.Microsecond},
		},
		Chains: []core.ChainSpec{{
			Name: "greet", Entry: "hello", ReqBytes: 256, RespBytes: 1024,
			Calls: []core.Call{{Callee: "world", ReqBytes: 512, RespBytes: 2048}},
		}},
	})
	clu.Eng.RunUntil(clu.P.QPSetupTime + time.Millisecond)
	s, err := New(clu, Options{Addr: "127.0.0.1:0"})
	if err != nil {
		panic(err)
	}
	return s
}

// mgmtState renders everything the management API can mutate: tenant
// weights, every gateway's route table and the watchdog rules.
func (s *Server) mgmtState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "weights=%v\n", s.clu.TenantWeights())
	for _, n := range s.clu.Nodes() {
		rt := n.Gateway.Routes()
		for _, fn := range rt.Functions() {
			node, _ := rt.NodeOf(fn)
			fmt.Fprintf(&b, "%s:%s->%s\n", n.Name, fn, node)
		}
	}
	fmt.Fprintf(&b, "rules=%+v\n", s.dog.Rules())
	return b.String()
}

// post runs one POST through the server's real handler stack.
func (s *Server) post(path string, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.routes().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rr
}

// FuzzManagementAPI feeds arbitrary POST bodies to the tenants, reroute,
// watchdog and chaos handlers of one daemon. Properties: no panic and no
// 5xx; a 400 leaves weights, routes and rules exactly as they were and arms
// no event; running the engine past the last event of any body that parses
// as a chaos schedule, accepted or refused, does not panic; an accepted
// re-weight stays within [1, core.MaxTenantWeight]; an accepted rule's
// window never opens or closes before now.
func FuzzManagementAPI(f *testing.F) {
	f.Add(uint8(0), []byte(`{"tenant":"gold","weight":9}`))
	f.Add(uint8(0), []byte(`{"tenant":"gold","weight":-1}`))
	f.Add(uint8(0), []byte(`{"tenant":"gold","weight":9007199254740992}`))
	f.Add(uint8(0), []byte(`{"tenant":"ghost","weight":2}`))
	f.Add(uint8(1), []byte(`{"fn":"world","node":"node2"}`))
	f.Add(uint8(1), []byte(`{"fn":"world","node":"node1"}`))
	f.Add(uint8(1), []byte(`{"fn":"world","node":"node1","force":true}`))
	f.Add(uint8(1), []byte(`{"fn":"ghost","node":"nowhere"}`))
	f.Add(uint8(2), []byte(`{"name":"slow","series":"cluster.goodput","op":"<","bound":1,"from_ms":5,"to_ms":50}`))
	f.Add(uint8(2), []byte(`{"name":"late","series":"cluster.goodput","op":"<","bound":1,"from_ms":1e13}`))
	f.Add(uint8(2), []byte(`{"name":"neg","series":"cluster.goodput","op":">","bound":1,"to_ms":-5}`))
	f.Add(uint8(2), []byte(`{"name":"bad","series":"x","op":"!="}`))
	f.Add(uint8(2), []byte(`not json`))
	f.Add(uint8(2), []byte(`{"name":"`+strings.Repeat("n", maxRuleKeyLen+1)+`","series":"cluster.goodput","op":"<","bound":1}`))
	for _, fault := range []string{
		`{"kind":"slow-cores","target":"cores@node2","factor":0.5}`,
		`{"kind":"dma-stall","target":"dma@node1"}`,
		`{"kind":"node-crash","node":"node2","qps":"crash@node2"}`,
		`{"kind":"dma-stall","target":"dma@nowhere"}`,
		`{"kind":"slow-cores","target":"cores@nowhere","factor":0.5}`,
		`{"kind":"qp-error","target":"qp@nowhere"}`,
		`{"kind":"gateway-restart","target":"nope"}`,
		`{"kind":"link-down","from":"nowhere","to":"elsewhere"}`,
		`{"kind":"node-down","node":"nowhere"}`,
		`{"kind":"node-crash","node":"nowhere"}`,
	} {
		f.Add(uint8(3), []byte(`{"events":[{"at_ms":1,"for_ms":2,"fault":`+fault+`}]}`))
	}

	s := fuzzServer()
	f.Cleanup(s.clu.Eng.Stop)
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := apiPaths[int(which)%len(apiPaths)]
		before := s.mgmtState()
		nRules := len(s.dog.Rules())
		pending := s.clu.Eng.Pending()
		now := s.clu.Eng.Now()
		rr := s.post(path, body)
		if rr.Code >= 500 {
			t.Fatalf("POST %s %q: %d %s", path, body, rr.Code, rr.Body)
		}
		if rr.Code == http.StatusBadRequest {
			if after := s.mgmtState(); after != before {
				t.Fatalf("POST %s %q answered 400 but changed state:\n--- before\n%s--- after\n%s",
					path, body, before, after)
			}
			if n := s.clu.Eng.Pending(); n != pending {
				t.Fatalf("POST %s %q answered 400 but armed %d events", path, body, n-pending)
			}
		}
		if path == "/api/v1/chaos" {
			sched, _ := chaos.ParseSchedule(body)
			var end time.Duration
			for _, ev := range sched {
				end = max(end, ev.At+ev.For)
			}
			s.clu.Eng.RunUntil(now + end + time.Nanosecond)
		}
		if rr.Code == http.StatusBadRequest {
			return
		}
		for _, ts := range s.clu.TenantWeights() {
			if ts.Weight < 1 || ts.Weight > core.MaxTenantWeight {
				t.Fatalf("POST %s %q left tenant %s at weight %d", path, body, ts.Name, ts.Weight)
			}
		}
		if rules := s.dog.Rules(); len(rules) > nRules {
			r := rules[len(rules)-1]
			if r.From < now || (r.To != 0 && r.To < now) {
				t.Fatalf("POST %s %q added rule with window [%v, %v] before now %v", path, body, r.From, r.To, now)
			}
		}
	})
}

// TestWatchdogWindowBounds: rule windows outside [0, 24h] are refused. A
// from_ms of 1e13 used to overflow into a window already open.
func TestWatchdogWindowBounds(t *testing.T) {
	s := fuzzServer()
	t.Cleanup(s.clu.Eng.Stop)
	for _, body := range []string{
		`{"name":"late","series":"cluster.goodput","op":"<","bound":1,"from_ms":1e13}`,
		`{"name":"past","series":"cluster.goodput","op":"<","bound":1,"from_ms":-1}`,
		`{"name":"neg","series":"cluster.goodput","op":"<","bound":1,"to_ms":-5}`,
		`{"name":"far","series":"cluster.goodput","op":"<","bound":1,"to_ms":86400001}`,
	} {
		if rr := s.post("/api/v1/watchdog", []byte(body)); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", body, rr.Code)
		}
	}
	ok := `{"name":"day","series":"cluster.goodput","op":"<","bound":1,"from_ms":0,"to_ms":86400000}`
	if rr := s.post("/api/v1/watchdog", []byte(ok)); rr.Code != http.StatusOK {
		t.Fatalf("%s: got %d, want 200: %s", ok, rr.Code, rr.Body)
	}
}

// TestWatchdogRuleBounds: names and series past maxRuleKeyLen bytes are
// refused, and so is any rule past maxWatchdogRules; a refused rule leaves
// the list as it was.
func TestWatchdogRuleBounds(t *testing.T) {
	s := fuzzServer()
	t.Cleanup(s.clu.Eng.Stop)
	long := strings.Repeat("x", maxRuleKeyLen+1)
	for _, body := range []string{
		`{"name":"` + long + `","series":"cluster.goodput","op":"<","bound":1}`,
		`{"name":"long-series","series":"` + long + `","op":"<","bound":1}`,
	} {
		if rr := s.post("/api/v1/watchdog", []byte(body)); rr.Code != http.StatusBadRequest {
			t.Errorf("%.40s...: got %d, want 400", body, rr.Code)
		}
	}
	// A name of exactly maxRuleKeyLen bytes is accepted.
	for i := 0; i < maxWatchdogRules; i++ {
		name := fmt.Sprintf("r%d", i)
		if i == 0 {
			name = strings.Repeat("x", maxRuleKeyLen)
		}
		body := `{"name":"` + name + `","series":"cluster.goodput","op":"<","bound":1}`
		if rr := s.post("/api/v1/watchdog", []byte(body)); rr.Code != http.StatusOK {
			t.Fatalf("rule %d: got %d, want 200: %s", i, rr.Code, rr.Body)
		}
	}
	over := `{"name":"one-too-many","series":"cluster.goodput","op":"<","bound":1}`
	if rr := s.post("/api/v1/watchdog", []byte(over)); rr.Code != http.StatusBadRequest {
		t.Fatalf("rule %d: got %d, want 400", maxWatchdogRules+1, rr.Code)
	}
	if n := len(s.dog.Rules()); n != maxWatchdogRules {
		t.Fatalf("watchdog holds %d rules, want %d", n, maxWatchdogRules)
	}
}
