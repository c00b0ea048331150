package core

import (
	"os"
	"testing"
	"time"

	"nadino/internal/ingress"
)

// maxDispatchesPerRequest bounds the process dispatches (goroutine
// handoffs) one boutique request costs in TestDispatchesPerRequest. The
// network engines, gateways, ingress workers and CQ poller, and the
// function handlers and receivers all run as engine callbacks, so a
// request costs none (61.19 while the function runtime and ingress workers
// were processes, 138.8 before that).
const maxDispatchesPerRequest = 0.0

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
