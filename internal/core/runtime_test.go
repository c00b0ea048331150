package core

import (
	"slices"
	"testing"
	"time"

	"nadino/internal/mempool"
	"nadino/internal/workload"
)

// fanoutConfig builds a chain whose entry makes three calls to slow
// backends — sequentially or as an async fan-out.
func fanoutConfig(async bool) Config {
	call := func(callee string) Call {
		return Call{Callee: callee, ReqBytes: 512, RespBytes: 512, Async: async}
	}
	return Config{
		System: NadinoDNE,
		Nodes:  []string{"node1", "node2"},
		Functions: []FunctionSpec{
			{Name: "entry", Node: "node1", Service: 10 * time.Microsecond},
			{Name: "s1", Node: "node2", Service: 100 * time.Microsecond, Workers: 4},
			{Name: "s2", Node: "node2", Service: 100 * time.Microsecond, Workers: 4},
			{Name: "s3", Node: "node2", Service: 100 * time.Microsecond, Workers: 4},
		},
		Chains: []ChainSpec{{
			Name: "fan", Entry: "entry", ReqBytes: 256, RespBytes: 256,
			Calls: []Call{call("s1"), call("s2"), call("s3")},
		}},
		Seed: 1,
	}
}

func runFan(t *testing.T, async bool) time.Duration {
	t.Helper()
	c := NewCluster(fanoutConfig(async))
	defer c.Eng.Stop()
	d := &workload.Driver{Chains: []string{"fan"}, Clients: 1, Requests: 50, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
	c.Eng.RunUntil(time.Second)
	h := c.ChainLatency["fan"]
	if h.Count() != 50 {
		t.Fatalf("completed %d of 50", h.Count())
	}
	return h.Mean()
}

func TestAsyncFanOutOverlapsCalls(t *testing.T) {
	seq := runFan(t, false)
	par := runFan(t, true)
	// Three 100us backends: sequential >= 300us of service alone;
	// parallel should approach one service time plus overheads.
	if par >= seq {
		t.Fatalf("parallel fan-out (%v) not faster than sequential (%v)", par, seq)
	}
	speedup := float64(seq) / float64(par)
	if speedup < 2.0 || speedup > 3.5 {
		t.Fatalf("fan-out speedup = %.2fx, want ~3x for three independent calls", speedup)
	}
}

// coldConfig is a single-function app with cold starts.
func coldConfig(keepWarm time.Duration) Config {
	return Config{
		System: NadinoDNE,
		Nodes:  []string{"node1", "node2"},
		Functions: []FunctionSpec{{
			Name: "fn", Node: "node1", Service: 20 * time.Microsecond,
			Workers: 2, ColdStart: 5 * time.Millisecond, KeepWarm: keepWarm,
		}},
		Chains: []ChainSpec{{
			Name: "hit", Entry: "fn", ReqBytes: 128, RespBytes: 128,
		}},
		Seed: 1,
	}
}

// sparse runs one client that sends n "hit" requests, each a gap after
// the previous reply.
func sparse(c *Cluster, n int, gap time.Duration) {
	d := &workload.Driver{Chains: []string{"hit"}, Clients: 1, Think: workload.Every(gap), Requests: n, Ready: c.OnReady}
	d.Start(c.Eng, c.SubmitChainSpec)
}

// runSparse sends widely spaced requests (gaps below keep-warm windows that
// are generous, above stingy ones).
func runSparse(t *testing.T, keepWarm time.Duration) (*Cluster, time.Duration) {
	t.Helper()
	c := NewCluster(coldConfig(keepWarm))
	sparse(c, 20, 10*time.Millisecond)
	c.Eng.RunUntil(2 * time.Second)
	if c.ChainLatency["hit"].Count() != 20 {
		t.Fatalf("completed %d of 20", c.ChainLatency["hit"].Count())
	}
	return c, c.ChainLatency["hit"].Mean()
}

func TestKeepWarmAvoidsColdStarts(t *testing.T) {
	cold, coldLat := runSparse(t, 1*time.Millisecond) // idles past keep-warm every time
	defer cold.Eng.Stop()
	warm, warmLat := runSparse(t, 100*time.Millisecond) // generous keep-warm
	defer warm.Eng.Stop()
	if cold.ColdStarts() < 15 {
		t.Fatalf("stingy keep-warm saw only %d cold starts", cold.ColdStarts())
	}
	// The generous policy pays at most the initial boots.
	if warm.ColdStarts() > 2 {
		t.Fatalf("generous keep-warm still paid %d cold starts", warm.ColdStarts())
	}
	if warmLat >= coldLat/2 {
		t.Fatalf("keep-warm latency %v not well below cold-start latency %v", warmLat, coldLat)
	}
}

func TestNoColdStartFieldsMeansNoColdStarts(t *testing.T) {
	cfg := coldConfig(0)
	cfg.Functions[0].ColdStart = 0
	c := NewCluster(cfg)
	defer c.Eng.Stop()
	sparse(c, 5, 50*time.Millisecond)
	c.Eng.RunUntil(time.Second)
	if c.ColdStarts() != 0 {
		t.Fatalf("cold starts = %d with ColdStart disabled", c.ColdStarts())
	}
}

// TestPoolSqueezeStrandsNoHandler holds each node's pools empty in turn for
// 16 ms, longer than a buffer allocation retries (10 ms), under load, on
// every system. Every message the runtime cannot buffer must fail the call it
// carries, so once load stops and the cluster drains no handler is left
// holding a request: none parked forever on a nested call whose request or
// reply was lost.
func TestPoolSqueezeStrandsNoHandler(t *testing.T) {
	for _, sys := range Systems() {
		for _, node := range testConfig(sys).Nodes {
			if sys.SingleNode() && node != "node1" {
				continue
			}
			c := NewCluster(testConfig(sys))
			d := &workload.Driver{Chains: []string{"mix"}, Clients: 8, Ready: c.OnReady}
			d.Start(c.Eng, c.SubmitChainSpec)
			for !c.Ready() {
				c.Eng.RunFor(time.Millisecond)
			}
			t0 := c.Eng.Now()
			c.Eng.RunUntil(t0 + 5*time.Millisecond)
			if c.Completed.Total() == 0 {
				t.Fatalf("%s: no request completed before the squeeze", sys)
			}
			// Hold the pools empty: take every free buffer now and every
			// one returned while the squeeze lasts.
			var held []heldBuf
			drain := func(time.Duration) {
				for _, tn := range c.tenants {
					pool := c.nodes[node].pool(tn.Name)
					for {
						b, err := pool.Get("squeeze")
						if err != nil {
							break
						}
						held = append(held, heldBuf{pool, b})
					}
				}
			}
			drain(0)
			stop := c.Eng.Ticker(time.Microsecond, drain)
			c.Eng.RunUntil(t0 + 21*time.Millisecond)
			stop()
			for _, h := range held {
				if err := h.pool.Put(h.buf, "squeeze"); err != nil {
					t.Fatal(err)
				}
			}
			d.Stop()
			c.Eng.RunUntil(t0 + 300*time.Millisecond)
			busy := 0
			for _, f := range c.fnSeq {
				for _, h := range f.handlers {
					if h.rc != nil {
						busy++
					}
				}
			}
			if busy != 0 {
				t.Errorf("%s, %s squeezed: %d handlers still hold a request at quiesce", sys, node, busy)
			}
			c.Eng.Stop()
		}
	}
}

// heldBuf is a buffer the squeeze took out of pool.
type heldBuf struct {
	pool *mempool.Pool
	buf  mempool.Buffer
}

// TestDuplicateRequestRepliesTwice hands one nested call's request to its
// callee twice, as a gateway retry that delivered it twice does. The
// callee replies twice: the first reply fills the invocation record's own
// context, and the second takes a fresh one, so the first reply's record
// is never rewritten while it may still be in flight. The caller takes
// the first reply; the second finds the call done and is recycled.
func TestDuplicateRequestRepliesTwice(t *testing.T) {
	c := NewCluster(Config{
		System: NadinoDNE,
		Nodes:  []string{"node1"},
		Functions: []FunctionSpec{
			{Name: "a", Node: "node1", Service: time.Microsecond},
			{Name: "b", Node: "node1", Service: 5 * time.Microsecond},
		},
		Chains: []ChainSpec{{Name: "ab", Entry: "a", ReqBytes: 64, RespBytes: 64,
			Calls: []Call{{Callee: "b", ReqBytes: 64, RespBytes: 64}}}},
		Seed: 1,
	})
	defer c.Eng.Stop()
	for !c.Ready() {
		c.Eng.RunFor(time.Millisecond)
	}
	c.Eng.RunFor(time.Millisecond) // every receiver and handler parked
	fa, fb := c.fns["a"], c.fns["b"]
	pool := fa.node.pool(fa.tenant)
	inUse := pool.InUse()

	// a calls b; while a pays the send cost, its op holds the request.
	op := &callOp{}
	op.init(c, fa)
	returned := 0
	op.then = func() { returned++ }
	op.invoke(Call{Callee: "b", ReqBytes: 64, RespBytes: 64}, "ab", nil)
	req := op.d
	inv := req.Msg.Ctx.(*msgCtx).Inv
	// The second copy: the same record, landed in a buffer of b's.
	buf, err := pool.Get(fb.owner)
	if err != nil {
		t.Fatal(err)
	}
	dup := req
	dup.Buf = buf
	fb.inflight++
	fb.localIn.Send(dup)

	// Watch b's handlers: each reply sits in its handler's op while the
	// send cost is paid.
	type record struct {
		src, dst string
		ctx      any
	}
	var replies []*mempool.Msg
	var first record
	for end := c.Eng.Now() + 200*time.Microsecond; c.Eng.Now() < end; {
		c.Eng.RunFor(10 * time.Nanosecond)
		for _, h := range fb.handlers {
			m := h.op.d.Msg
			if m == nil || slices.Contains(replies, m) {
				continue
			}
			replies = append(replies, m)
			if len(replies) == 1 {
				first = record{m.Src, m.Dst, m.Ctx}
			}
		}
	}
	if len(replies) != 2 {
		t.Fatalf("b built %d distinct reply records, want 2", len(replies))
	}
	if replies[0] != &inv.rep.msg {
		t.Fatal("the first reply does not use the invocation's own reply context")
	}
	if got := (record{replies[0].Src, replies[0].Dst, replies[0].Ctx}); got != first || got != (record{"b", "a", &inv.rep}) {
		t.Fatalf("first reply's record %+v after the second reply, want %+v", got, first)
	}
	if mc := replies[1].Ctx.(*msgCtx); mc == &inv.rep || mc.Inv != inv || mc.Kind != kindResponse {
		t.Fatalf("second reply's context %p (record's own %p) answers %p, want a fresh one for %p", mc, &inv.rep, mc.Inv, inv)
	}
	if returned != 1 || op.err != nil || !inv.call.done || inv.call.failed {
		t.Fatalf("caller resumed %d times, err %v, call done %v failed %v; want one clean reply", returned, op.err, inv.call.done, inv.call.failed)
	}
	if fb.inflight != 0 {
		t.Fatalf("b has %d requests in flight, want 0", fb.inflight)
	}
	// Both request buffers, the taken reply and the late one are back.
	if got := pool.InUse(); got != inUse {
		t.Fatalf("%d buffers in use, want %d", got, inUse)
	}
	if err := pool.Audit(); err != nil {
		t.Fatal(err)
	}
}
