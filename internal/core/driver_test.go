package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestDriverMatchesProcessClients holds the driver to the one-event-per-
// block-point rule: on every system, with 1, 8 and 64 closed-loop clients
// over 80 ms, the driver (spawn -> Immediate, the ready wait -> one
// readiness wake, the reply wait -> Immediate) completes the same requests
// with the same latency sum, in the same number of events, as the process
// clients it replaced did. Their numbers are in
// testdata/driver_reference.golden, recorded from the process clients
// before the process form was removed (the rebuilt ready wait's one extra
// OnReady event already taken off); regenerate it with -update only for a
// change that means to move modeled numbers.
func TestDriverMatchesProcessClients(t *testing.T) {
	var b strings.Builder
	for _, sys := range Systems() {
		for _, n := range []int{1, 8, 64} {
			c := NewCluster(testConfig(sys))
			closedLoop(c, n)
			c.Eng.RunUntil(80 * time.Millisecond)
			if c.Completed.Total() == 0 {
				t.Errorf("%v, %d clients: nothing completed", sys, n)
			}
			fmt.Fprintf(&b, "%s clients=%d completed=%d latency=%d fired=%d\n",
				sys, n, c.Completed.Total(), int64(c.ChainLatency["mix"].Sum()), c.Eng.Fired())
			c.Eng.Stop()
		}
	}
	got := b.String()
	if *updateFingerprint {
		if err := os.WriteFile(driverGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(driverGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("driver diverges from the process clients:\n got:\n%s\nwant:\n%s", got, want)
	}
}

const driverGolden = "testdata/driver_reference.golden"

// TestOnReadyOrder pins the readiness FIFO: continuations registered
// during setup run in order, each from its own event at the instant setup
// completes, and each wake schedules the next one before running its
// continuation — so an Immediate the first continuation schedules (10)
// runs after the second — and one registered afterwards runs at once.
func TestOnReadyOrder(t *testing.T) {
	c := NewCluster(testConfig(NadinoDNE))
	defer c.Eng.Stop()
	var order []int
	var at []time.Duration
	for i := 0; i < 3; i++ {
		i := i
		c.OnReady(func() {
			order = append(order, i)
			at = append(at, c.Eng.Now())
			if i == 0 {
				c.Eng.Immediate(func() { order = append(order, 10) })
			}
		})
	}
	for !c.Ready() {
		c.Eng.RunFor(time.Millisecond)
	}
	if fmt.Sprint(order) != "[0 1 10 2]" || at[0] != at[2] {
		t.Fatalf("OnReady ran %v at %v, want [0 1 10 2] at one instant", order, at)
	}
	fired := c.Eng.Fired()
	c.OnReady(func() { order = append(order, 3) })
	if len(order) != 5 || c.Eng.Fired() != fired {
		t.Fatalf("OnReady after setup did not run at once: %v", order)
	}
}
