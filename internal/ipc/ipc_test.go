package ipc

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

func TestSKMsgDeliveryOrderAndLatency(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	ch := NewSKMsg(eng, p, nil)
	for i := 0; i < 3; i++ {
		ch.Send(mempool.Descriptor{Seq: uint64(i)})
	}
	var got []uint64
	var firstAt time.Duration
	var rx func()
	rx = func() {
		for len(got) < 3 {
			d, ok := ch.TryRecv()
			if !ok {
				ch.Notify(rx)
				return
			}
			if len(got) == 0 {
				firstAt = eng.Now()
			}
			got = append(got, d.Seq)
		}
	}
	eng.Immediate(rx)
	eng.Run()
	if firstAt != p.SKMsgDeliver {
		t.Fatalf("first delivery at %v, want %v", firstAt, p.SKMsgDeliver)
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
	if ch.Sent() != 3 {
		t.Fatalf("sent = %d", ch.Sent())
	}
}

func TestSKMsgInterruptPressure(t *testing.T) {
	p := params.Default()
	idle := InterruptCost(p, 0)
	busy := InterruptCost(p, 20)
	if busy <= idle {
		t.Fatalf("interrupt cost flat under backlog: %v vs %v", idle, busy)
	}
	if InterruptCost(p, 10_000) != p.SKMsgInterruptCap {
		t.Fatal("interrupt cost not capped")
	}
}

func TestSKMsgWorkSignalWakesLoop(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	work := sim.NewSignal(eng)
	ch := NewSKMsg(eng, p, work.Pulse)
	woke := false
	var loop func()
	loop = func() {
		if _, ok := ch.TryRecv(); ok {
			woke = true
			return
		}
		work.Notify(loop)
	}
	eng.Immediate(loop)
	eng.After(time.Millisecond, func() { ch.Send(mempool.Descriptor{}) })
	eng.Run()
	if !woke {
		t.Fatal("event loop never woke on delivery")
	}
}

func TestTokenPassingChain(t *testing.T) {
	// A -> B -> C: ownership strictly follows the call graph (§3.5.1). Each
	// hop transfers the buffer, then hands its descriptor over SK_MSG.
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	pool := mempool.NewPool("t", 1024, 4, p.HugepageSize)
	ab := NewSKMsg(eng, p, nil)
	bc := NewSKMsg(eng, p, nil)
	buf, _ := pool.Get("A")
	var order []string
	eng.After(10*time.Microsecond, func() { // do work
		order = append(order, "A")
		if err := pool.Transfer(buf, "A", "B"); err != nil {
			t.Error(err)
		}
		ab.Send(mempool.Descriptor{Buf: buf})
	})
	recv(ab, func(d mempool.Descriptor) {
		if err := pool.Access(d.Buf, "B"); err != nil {
			t.Error(err)
		}
		order = append(order, "B")
		if err := pool.Transfer(d.Buf, "B", "C"); err != nil {
			t.Error(err)
		}
		bc.Send(d)
	})
	recv(bc, func(d mempool.Descriptor) {
		if err := pool.Access(d.Buf, "C"); err != nil {
			t.Error(err)
		}
		order = append(order, "C")
		if err := pool.Put(d.Buf, "C"); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if len(order) != 3 || order[0] != "A" || order[1] != "B" || order[2] != "C" {
		t.Fatalf("chain order = %v", order)
	}
	if pool.InUse() != 0 {
		t.Fatalf("buffer leaked: inUse = %d", pool.InUse())
	}
}

func TestCostAccessors(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	if InterruptCost(p, 0) != p.SKMsgInterruptBase {
		t.Fatal("idle interrupt cost is not the base cost")
	}
	ch := NewSKMsg(eng, p, nil)
	ch.Send(mempool.Descriptor{})
	eng.Run()
	if ch.Pending() != 1 {
		t.Fatalf("pending = %d", ch.Pending())
	}
}

// recv passes the next descriptor delivered on c to then, parking on
// Notify until one arrives.
func recv(c *Chan, then func(mempool.Descriptor)) {
	if d, ok := c.TryRecv(); ok {
		then(d)
		return
	}
	c.Notify(func() { recv(c, then) })
}

// TestChanDeliversInSendOrderAtLatency runs channels through random
// schedules: sends at random instants on a coarse grid (so sends and
// deliveries share instants), same-instant bursts, and sends made from
// inside the wake hook or the receiver. Every descriptor must be taken in
// send order at exactly its send instant plus the latency, and at every
// delivery Sent and Pending must agree with the sends, deliveries and
// takes seen so far. The receiver alternates between draining inside the
// wake hook and parking on Notify.
func TestChanDeliversInSendOrderAtLatency(t *testing.T) {
	const grid = 100 * time.Nanosecond
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		lat := time.Duration(1+rng.Intn(8)) * grid
		if rng.Intn(2) == 0 {
			lat += time.Duration(rng.Intn(100)) * time.Nanosecond
		}
		inWake := seed%2 == 0
		var (
			c                *Chan
			sentAt           []time.Duration
			delivered, taken int
			echoes           int
			fail             string
		)
		failf := func(format string, args ...any) {
			if fail == "" {
				fail = fmt.Sprintf(format, args...)
			}
		}
		send := func() {
			c.Send(mempool.Descriptor{Seq: uint64(len(sentAt))})
			sentAt = append(sentAt, eng.Now())
		}
		// echo sends once more from inside a delivery, a bounded number of
		// times per run.
		echo := func() {
			if echoes < 20 && rng.Intn(3) == 0 {
				echoes++
				send()
			}
		}
		drain := func() {
			if got, want := c.Pending(), delivered-taken; got != want {
				failf("pending = %d after %d deliveries and %d takes", got, delivered, taken)
			}
			for {
				d, ok := c.TryRecv()
				if !ok {
					return
				}
				if d.Seq != uint64(taken) {
					failf("took seq %d, want %d", d.Seq, taken)
				} else if want := sentAt[taken] + lat; eng.Now() != want {
					failf("seq %d taken at %v, want %v", taken, eng.Now(), want)
				}
				taken++
			}
		}
		var rx func()
		rx = func() {
			drain()
			echo()
			c.Notify(rx)
		}
		c = NewChan(eng, lat, "test", "test", func() {
			delivered++
			if got := c.Sent(); got != uint64(len(sentAt)) {
				failf("sent = %d after %d sends", got, len(sentAt))
			}
			if inWake {
				drain()
				echo()
			}
		})
		if !inWake {
			eng.Immediate(func() { c.Notify(rx) })
		}
		for i := 0; i < 60; i++ {
			burst := 1 + rng.Intn(3)
			eng.At(time.Duration(rng.Intn(40))*grid, func() {
				for k := 0; k < burst; k++ {
					send()
				}
			})
		}
		eng.Run()
		eng.Stop()
		if fail == "" && (taken != len(sentAt) || delivered != len(sentAt) || c.Pending() != 0) {
			fail = fmt.Sprintf("%d sent, %d delivered, %d taken, %d pending", len(sentAt), delivered, taken, c.Pending())
		}
		if fail != "" {
			t.Fatalf("seed %d (latency %v, drain in wake %v): %s", seed, lat, inWake, fail)
		}
	}
}
