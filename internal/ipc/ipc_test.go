package ipc

import (
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
	if ch.Delivered() != 3 {
		t.Fatalf("delivered = %d", ch.Delivered())
	}
}

func TestSKMsgInterruptPressure(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	ch := NewSKMsg(eng, p, nil)
	idle := ch.InterruptCost(0)
	busy := ch.InterruptCost(20)
	if busy <= idle {
		t.Fatalf("interrupt cost flat under backlog: %v vs %v", idle, busy)
	}
	if ch.InterruptCost(10_000) != p.SKMsgInterruptCap {
		t.Fatal("interrupt cost not capped")
	}
}

func TestSKMsgWorkSignalWakesLoop(t *testing.T) {
	p := params.Default()
	eng := sim.NewEngine(1)
	defer eng.Stop()
	work := sim.NewSignal(eng)
	ch := NewSKMsg(eng, p, work)
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
	ch := NewSKMsg(eng, p, nil)
	if ch.SendCost() != p.SKMsgSendCost || ch.WakeupCost() != p.SKMsgWakeup {
		t.Fatal("SKMsg cost accessors wrong")
	}
	ch.Send(mempool.Descriptor{})
	eng.Run()
	if ch.Pending() != 1 {
		t.Fatalf("pending = %d", ch.Pending())
	}
}

// recv passes the next descriptor delivered on c to then, parking on
// Notify until one arrives.
func recv(c *SKMsg, then func(mempool.Descriptor)) {
	if d, ok := c.TryRecv(); ok {
		then(d)
		return
	}
	c.Notify(func() { recv(c, then) })
}
