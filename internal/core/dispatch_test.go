package core

import (
	"os"
	"testing"
	"time"

	"nadino/internal/ingress"
)

// maxDispatchesPerRequest bounds the process dispatches (goroutine
// handoffs) one boutique request costs in TestDispatchesPerRequest. The
// network engines, gateways and the ingress CQ poller run as engine
// callbacks, so what is left is the function workers, their port receivers
// and the ingress workers: 61.19 per request. While the engine loops,
// gateways and poller were processes it was 138.8. The count is
// deterministic, so tighten this as more loops leave the Proc layer.
const maxDispatchesPerRequest = 61.2

// TestDispatchesPerRequest drives the checked-in boutique config with 32
// proc-free closed-loop clients (3:1 home-query:place-order) and gates the
// process dispatches per completed request.
func TestDispatchesPerRequest(t *testing.T) {
	f, err := os.Open("../../configs/boutique.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(cfg)
	t.Cleanup(c.Eng.Stop)
	for !c.Ready() {
		if c.Eng.Now() > time.Second {
			t.Fatal("cluster not ready after 1s of virtual time")
		}
		c.Eng.RunFor(time.Millisecond)
	}
	chains := [4]string{"home-query", "home-query", "home-query", "place-order"}
	issued := 0
	for i := 0; i < 32; i++ {
		id := i
		var issue func()
		reply := func(ingress.Response) { issue() }
		issue = func() {
			c.SubmitChain(chains[issued%len(chains)], id, reply)
			issued++
		}
		c.Eng.Immediate(issue)
	}
	c.Eng.RunFor(20 * time.Millisecond) // warm up
	d0, n0 := c.Eng.Dispatches(), c.Completed.Total()
	c.Eng.RunFor(50 * time.Millisecond)
	done := c.Completed.Total() - n0
	if done < 1000 {
		t.Fatalf("only %d requests completed in the window", done)
	}
	per := float64(c.Eng.Dispatches()-d0) / float64(done)
	if per > maxDispatchesPerRequest {
		t.Fatalf("%.2f process dispatches per request over %d requests, bound %.2f",
			per, done, maxDispatchesPerRequest)
	}
}
