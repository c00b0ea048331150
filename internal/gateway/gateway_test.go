package gateway

import (
	"fmt"
	"testing"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// stubEgress stands in for the node's dne.Engine: it records deliveries and
// recycles buffers so pools stay conserved.
type stubEgress struct {
	pool      *mempool.Pool
	gw        *Gateway
	delivered []mempool.Descriptor
	released  int
	onRelease func()
}

func (s *stubEgress) GatewayDeliver(d mempool.Descriptor) {
	s.delivered = append(s.delivered, d)
	if err := s.pool.Put(d.Buf, s.gw.Owner()); err != nil {
		panic(err)
	}
}

func (s *stubEgress) GatewayRelease(d mempool.Descriptor) {
	s.released++
	if err := s.pool.Put(d.Buf, "eng"); err != nil {
		panic(err)
	}
	if s.onRelease != nil {
		s.onRelease()
	}
}

// gwRig wires n nodes with RNICs, one tenant pool each, a gateway each, and
// a full mesh of inter-gateway QP pools. ready pulses once the mesh is up.
type gwRig struct {
	eng   *sim.Engine
	p     *params.Params
	net   *fabric.Network
	nodes []fabric.NodeID
	gws   []*Gateway
	pools []*mempool.Pool
	egs   []*stubEgress
	ready *sim.Signal
}

func newGwRig(tb testing.TB, seed int64, n, window int) *gwRig {
	tb.Helper()
	p := params.Default()
	eng := sim.NewEngine(seed)
	tb.Cleanup(eng.Stop)
	net := fabric.New(eng, p)
	r := &gwRig{eng: eng, p: p, net: net, ready: sim.NewSignal(eng)}
	for i := 0; i < n; i++ {
		node := fabric.NodeID(fmt.Sprintf("n%d", i+1))
		rnic := rdma.NewRNIC(eng, p, node, net)
		pool := mempool.NewPool("t", 4096, 64, p.HugepageSize)
		g := New(eng, p, node, net, rnic, window)
		g.AddTenant("t", pool)
		eg := &stubEgress{pool: pool, gw: g}
		g.SetEgress(eg)
		r.nodes = append(r.nodes, node)
		r.gws = append(r.gws, g)
		r.pools = append(r.pools, pool)
		r.egs = append(r.egs, eg)
	}
	// The mesh comes up one pair after another, then every gateway starts.
	var pairs [][2]*Gateway
	for i := range r.gws {
		for j := i + 1; j < len(r.gws); j++ {
			pairs = append(pairs, [2]*Gateway{r.gws[i], r.gws[j]})
		}
	}
	var connect func(k int)
	connect = func(k int) {
		if k == len(pairs) {
			for _, g := range r.gws {
				g.Start()
			}
			r.ready.Pulse()
			return
		}
		Connect(eng, pairs[k][0], pairs[k][1], 2, func() { connect(k + 1) })
	}
	eng.Immediate(func() { connect(0) })
	return r
}

// route records fn -> node in every gateway's table (placement wiring).
func (r *gwRig) route(fn string, node fabric.NodeID) {
	for _, g := range r.gws {
		g.Routes().Set(fn, node)
	}
}

// conserve asserts the fleet-wide conservation law at quiesce.
func (r *gwRig) conserve(tb testing.TB) {
	tb.Helper()
	var in, out, drop uint64
	for _, g := range r.gws {
		s := g.Stats()
		in += s.AcceptIn
		out += s.Delivered
		drop += s.Dropped
		if n := g.Pending(); n != 0 {
			tb.Errorf("gateway %s: %d forwards still pending at quiesce", g.Node(), n)
		}
		if n := g.InflightWrites(); n != 0 {
			tb.Errorf("gateway %s: %d writes still in flight at quiesce", g.Node(), n)
		}
	}
	if in != out+drop {
		tb.Errorf("conservation broken: acceptIn=%d delivered=%d dropped=%d", in, out, drop)
	}
}

func TestRouteTableFailoverAndVersion(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	net := fabric.New(eng, p)
	for _, n := range []fabric.NodeID{"a", "b", "c"} {
		net.AddNode(n)
	}
	rt := NewRouteTable("a")
	rt.AddPeer("b")
	rt.AddPeer("c")
	v0 := rt.Version()

	rt.Set("f1", "c")
	if rt.Version() == v0 {
		t.Fatal("Set of a new function did not bump the version")
	}
	rt.Set("f1", "c") // no-op
	v1 := rt.Version()
	if rt.Version() != v1 {
		t.Fatal("idempotent Set bumped the version")
	}

	// Healthy fabric: direct hops.
	if rt.Refresh(net) {
		t.Fatal("Refresh on a healthy fabric reported a change")
	}
	if hop := rt.NextHop("c"); hop != "c" {
		t.Fatalf("healthy NextHop(c) = %s, want c", hop)
	}

	// Cut a->c: the one-bounce detour must go via b, deterministically.
	net.SetLinkDown("a", "c", true)
	if !rt.Refresh(net) {
		t.Fatal("Refresh did not notice the cut link")
	}
	if hop := rt.NextHop("c"); hop != "b" {
		t.Fatalf("post-cut NextHop(c) = %s, want detour via b", hop)
	}
	if rt.Version() == v1 {
		t.Fatal("failover did not bump the version")
	}

	// Heal: back to direct within one refresh.
	net.SetLinkDown("a", "c", false)
	if !rt.Refresh(net) {
		t.Fatal("Refresh did not notice the healed link")
	}
	if hop := rt.NextHop("c"); hop != "c" {
		t.Fatalf("post-heal NextHop(c) = %s, want c", hop)
	}

	// A dead node has no detour: route direct and let the transport retry.
	net.SetDown("c", true)
	rt.Refresh(net)
	if hop := rt.NextHop("c"); hop != "c" {
		t.Fatalf("NextHop to a dead node = %s, want direct c", hop)
	}
}

func TestPlaceLocality(t *testing.T) {
	nodes := []string{"n1", "n2"}
	got := Place(nodes, [][]string{{"f1", "f2", "f3", "f4"}}, 2)
	want := map[string]string{"f1": "n1", "f2": "n1", "f3": "n2", "f4": "n2"}
	for fn, n := range want {
		if got[fn] != n {
			t.Errorf("Place(%s) = %s, want %s (locality-first, spill least-loaded)", fn, got[fn], n)
		}
	}

	// A function shared across chains keeps its first assignment.
	got = Place(nodes, [][]string{{"a", "b"}, {"c", "a"}}, 0)
	if got["a"] != "n1" {
		t.Errorf("shared function moved: a on %s, want first assignment n1", got["a"])
	}

	// Determinism: same inputs, same map.
	a := fmt.Sprint(Place(nodes, [][]string{{"f1", "f2", "f3", "f4"}}, 2))
	b := fmt.Sprint(Place(nodes, [][]string{{"f1", "f2", "f3", "f4"}}, 2))
	if a != b {
		t.Errorf("Place is not deterministic: %s vs %s", a, b)
	}
}

func TestPlaceSkewed(t *testing.T) {
	got := PlaceSkewed([]string{"n1", "n2"}, [][]string{{"f1", "f2", "f3"}})
	if got["f1"] == got["f2"] || got["f2"] == got["f3"] {
		t.Errorf("PlaceSkewed left adjacent stages co-located: %v", got)
	}
}

func TestForwardDeliverConservation(t *testing.T) {
	r := newGwRig(t, 1, 2, 8)
	r.route("fnB", "n2")
	const msgs = 10
	var send func(i int)
	send = func(i int) {
		if i == msgs {
			return
		}
		src, err := r.pools[0].Get("eng")
		if err != nil {
			t.Errorf("source pool dry at msg %d", i)
			return
		}
		d := mempool.Descriptor{Tenant: "t", Buf: src, Len: 256, Msg: &mempool.Msg{Dst: "fnB"}, Seq: uint64(i)}
		if !r.gws[0].ForwardRemote(d, "n2") {
			t.Errorf("ForwardRemote refused a peer destination")
			return
		}
		r.eng.After(2*time.Microsecond, func() { send(i + 1) })
	}
	r.ready.Notify(func() { send(0) })
	// QP setup for the mesh takes tens of sim-milliseconds; leave headroom.
	r.eng.RunUntil(200 * time.Millisecond)

	sA, sB := r.gws[0].Stats(), r.gws[1].Stats()
	if sA.AcceptIn != msgs || sA.Forwarded != msgs {
		t.Errorf("sender stats = %+v, want acceptIn=forwarded=%d", sA, msgs)
	}
	if sB.Delivered != msgs {
		t.Errorf("receiver delivered %d, want %d", sB.Delivered, msgs)
	}
	if len(r.egs[1].delivered) != msgs {
		t.Fatalf("egress got %d descriptors, want %d", len(r.egs[1].delivered), msgs)
	}
	for i, d := range r.egs[1].delivered {
		if d.Msg.Dst != "fnB" || d.Len != 256 || d.Seq != uint64(i) {
			t.Errorf("delivered[%d] = {Dst:%s Len:%d Seq:%d}, metadata mangled", i, d.Msg.Dst, d.Len, d.Seq)
		}
	}
	if r.egs[0].released != msgs {
		t.Errorf("source released %d buffers, want %d", r.egs[0].released, msgs)
	}
	// Window fully restocked, pools conserved.
	if got := r.gws[1].SlotsHeld("t"); got != 8 {
		t.Errorf("receiver holds %d slots, want restocked window 8", got)
	}
	for i, pool := range r.pools {
		if held := r.gws[i].SlotsHeld("t"); pool.InUse() != held {
			t.Errorf("pool %d: inUse=%d but gateway holds %d — leak", i, pool.InUse(), held)
		}
	}
	r.conserve(t)
}

// TestWindowBackpressure drives more forwards than the landing window holds
// in one burst: the pump must park on the credit and drain as slots restock,
// losing nothing.
func TestWindowBackpressure(t *testing.T) {
	r := newGwRig(t, 1, 2, 2)
	r.route("fnB", "n2")
	const msgs = 20
	r.ready.Notify(func() {
		for i := 0; i < msgs; i++ {
			src, err := r.pools[0].Get("eng")
			if err != nil {
				t.Errorf("source pool dry at msg %d", i)
				return
			}
			r.gws[0].ForwardRemote(mempool.Descriptor{Tenant: "t", Buf: src, Len: 1024, Msg: &mempool.Msg{Dst: "fnB"}}, "n2")
		}
	})
	r.eng.RunUntil(200 * time.Millisecond)
	if got := r.gws[1].Stats().Delivered; got != msgs {
		t.Errorf("delivered %d of %d under a 2-slot window", got, msgs)
	}
	r.conserve(t)
}

// TestTransitRelayAroundPartition cuts the n1<->n3 link: forwards to n3 must
// detour through n2 as a transit leg and still deliver, with the hop count
// recording the bounce.
func TestTransitRelayAroundPartition(t *testing.T) {
	r := newGwRig(t, 1, 3, 8)
	r.route("fnC", "n3")
	r.net.SetLinkDown("n1", "n3", true)
	r.net.SetLinkDown("n3", "n1", true)
	r.ready.Notify(func() {
		src, _ := r.pools[0].Get("eng")
		r.gws[0].ForwardRemote(mempool.Descriptor{Tenant: "t", Buf: src, Len: 512, Msg: &mempool.Msg{Dst: "fnC"}}, "n3")
	})
	r.eng.RunUntil(200 * time.Millisecond)

	if got := r.gws[2].Stats().Delivered; got != 1 {
		for i, g := range r.gws {
			t.Logf("gw%d %s: %+v hop(n3)=%s", i+1, g.Node(), g.Stats(), g.Routes().NextHop("n3"))
		}
		t.Fatalf("n3 delivered %d, want 1 (via detour)", got)
	}
	if got := r.gws[1].Stats().Transit; got != 1 {
		t.Errorf("n2 transit = %d, want 1 relay leg", got)
	}
	if d := r.egs[2].delivered[0]; d.Hops != 1 {
		t.Errorf("delivered descriptor Hops = %d, want 1", d.Hops)
	}
	r.conserve(t)
}

// TestDeterministicReplay runs the same partition-relay scenario twice with
// one seed and asserts byte-identical stats.
func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		r := newGwRig(t, 7, 3, 4)
		r.route("fnC", "n3")
		var send func(i int)
		send = func(i int) {
			if i == 50 {
				return
			}
			if src, err := r.pools[0].Get("eng"); err == nil {
				r.gws[0].ForwardRemote(mempool.Descriptor{Tenant: "t", Buf: src, Len: 300, Msg: &mempool.Msg{Dst: "fnC"}, Seq: uint64(i)}, "n3")
			}
			r.eng.After(time.Microsecond, func() {
				if i == 20 {
					r.net.SetLinkDown("n1", "n3", true)
				}
				if i == 40 {
					r.net.SetLinkDown("n1", "n3", false)
				}
				send(i + 1)
			})
		}
		r.ready.Notify(func() { send(0) })
		r.eng.RunUntil(300 * time.Millisecond)
		out := ""
		for _, g := range r.gws {
			out += fmt.Sprintf("%s:%+v v%d|", g.Node(), g.Stats(), g.Routes().Version())
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed runs diverged:\n  %s\n  %s", a, b)
	}
}

// BenchmarkGatewayForward measures the closed-loop cross-node forward path
// (submit -> pump -> one-sided write -> land -> deliver -> release). The
// steady state must not allocate: every structure on the path is pooled.
func BenchmarkGatewayForward(b *testing.B) {
	r := newGwRig(b, 1, 2, 8)
	r.route("fnB", "n2")
	done := sim.NewSignal(r.eng)
	r.egs[0].onRelease = done.Pulse
	step := forwardLoop(b, r, "fnB", "n2", done)
	r.ready.Notify(func() {
		b.ResetTimer()
		step()
	})
	b.ReportAllocs()
	r.eng.Run()
}

// BenchmarkChainCrossNode measures a two-hop relay chain n1 -> n2 -> n3
// (transit ingest + onward write included).
func BenchmarkChainCrossNode(b *testing.B) {
	r := newGwRig(b, 1, 3, 8)
	r.route("fnC", "n3")
	r.net.SetLinkDown("n1", "n3", true)
	r.net.SetLinkDown("n3", "n1", true)
	done := sim.NewSignal(r.eng)
	r.egs[0].onRelease = done.Pulse
	step := forwardLoop(b, r, "fnC", "n3", done)
	r.ready.Notify(func() {
		r.eng.After(2*r.p.GwFailoverInterval, func() {
			b.ResetTimer()
			step()
		})
	})
	b.ReportAllocs()
	r.eng.Run()
}

// forwardLoop returns a closed-loop driver for the forwarding benchmarks,
// bound once so its steady state allocates nothing: each step forwards one
// 1 KB descriptor from n1 to dst for fn and parks on done (pulsed when the
// source buffer comes home) until b.N have gone, then stops the engine.
// Every descriptor shares one record, built here outside the timed loop.
func forwardLoop(b *testing.B, r *gwRig, fn string, dst fabric.NodeID, done *sim.Signal) func() {
	i := 0
	msg := &mempool.Msg{Dst: fn}
	var step func()
	step = func() {
		if i == b.N {
			r.eng.Stop()
			return
		}
		src, err := r.pools[0].Get("eng")
		if err != nil {
			b.Errorf("source pool dry at iter %d", i)
			r.eng.Stop()
			return
		}
		i++
		r.gws[0].ForwardRemote(mempool.Descriptor{Tenant: "t", Buf: src, Len: 1024, Msg: msg}, dst)
		done.Notify(step)
	}
	return step
}
