package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/params"
	"nadino/internal/sim"
)

func newNet(t *testing.T, seed int64, nodes ...fabric.NodeID) (*sim.Engine, *fabric.Network) {
	t.Helper()
	eng := sim.NewEngine(seed)
	t.Cleanup(eng.Stop)
	p := params.Default()
	net := fabric.New(eng, p)
	for _, n := range nodes {
		net.AddNode(n)
	}
	return eng, net
}

func TestLinkDownWindow(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b")
	in := NewInjector(eng, net, 1)
	in.Install(Schedule{
		{At: 10 * time.Microsecond, For: 20 * time.Microsecond, Fault: LinkDown{From: "a", To: "b"}},
	})
	// Before, during and after the window.
	delivered := 0
	send := func(at time.Duration) {
		eng.At(at, func() { net.Send("a", "b", 64, func() { delivered++ }) })
	}
	send(5 * time.Microsecond)
	send(20 * time.Microsecond) // inside the window: dropped
	send(40 * time.Microsecond)
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (one dropped in window)", delivered)
	}
	if net.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", net.Drops())
	}
	if in.Applied() != 1 || in.Reverted() != 1 {
		t.Fatalf("applied=%d reverted=%d, want 1/1", in.Applied(), in.Reverted())
	}
	if len(in.History()) != 2 {
		t.Fatalf("history %v, want apply+revert", in.History())
	}
}

func TestPermanentFault(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b")
	in := NewInjector(eng, net, 1)
	// For == 0: applied, never reverted.
	in.Install(Schedule{{At: 0, Fault: LinkDown{From: "a", To: "b"}}})
	eng.RunFor(time.Second)
	if !net.LinkDown("a", "b") {
		t.Fatal("permanent fault was reverted")
	}
	if in.Applied() != 1 || in.Reverted() != 0 {
		t.Fatalf("applied=%d reverted=%d, want 1/0", in.Applied(), in.Reverted())
	}
}

func TestNodeDown(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b", "c")
	in := NewInjector(eng, net, 1)
	in.Install(Schedule{{At: time.Millisecond, For: time.Millisecond, Fault: NodeDown{Node: "b"}}})
	eng.RunUntil(time.Millisecond)
	if !net.LinkDown("a", "b") || !net.LinkDown("b", "a") || !net.LinkDown("c", "b") {
		t.Fatal("node-down did not take all links down")
	}
	if net.LinkDown("a", "c") {
		t.Fatal("node-down hit an unrelated link")
	}
	eng.RunUntil(2 * time.Millisecond)
	if net.LinkDown("a", "b") || net.Down("b") {
		t.Fatal("node-down did not revert")
	}
}

func TestPartition(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b", "c", "d")
	in := NewInjector(eng, net, 1)
	in.Install(Schedule{{
		At: time.Microsecond, For: time.Microsecond,
		Fault: Partition{A: []fabric.NodeID{"a", "b"}, B: []fabric.NodeID{"c", "d"}, OneWay: true},
	}})
	eng.RunUntil(time.Microsecond)
	if !net.LinkDown("a", "c") || !net.LinkDown("b", "d") {
		t.Fatal("partition missing A->B cuts")
	}
	if net.LinkDown("c", "a") {
		t.Fatal("one-way partition cut the reverse direction")
	}
	if net.LinkDown("a", "b") || net.LinkDown("c", "d") {
		t.Fatal("partition cut an intra-group link")
	}
	eng.RunUntil(2 * time.Microsecond)
	if net.LinkDown("a", "c") {
		t.Fatal("partition did not heal")
	}
}

func TestLinkLossAndJitterWindows(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b")
	in := NewInjector(eng, net, 1)
	in.Install(Schedule{
		{At: 0, For: time.Millisecond, Fault: LinkLoss{From: "a", To: "b", Prob: 1.0}},
		{At: 2 * time.Millisecond, For: time.Millisecond,
			Fault: LinkJitter{From: "a", To: "b", Extra: 100 * time.Microsecond, Jitter: 0}},
	})
	delivered := 0
	var lastAt time.Duration
	eng.At(500*time.Microsecond, func() { net.Send("a", "b", 64, func() { delivered++ }) })
	eng.At(2500*time.Microsecond, func() {
		net.Send("a", "b", 64, func() { delivered++; lastAt = eng.Now() })
	})
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (loss window eats the first)", delivered)
	}
	if lastAt < 2600*time.Microsecond {
		t.Fatalf("jitter window delivery at %v, want >= 2.6ms", lastAt)
	}
}

type fakeStaller struct{ total time.Duration }

func (f *fakeStaller) Stall(d time.Duration) { f.total += d }

type fakeRestarter struct{ pauses []time.Duration }

func (f *fakeRestarter) InjectRestart(p time.Duration) { f.pauses = append(f.pauses, p) }

type fakeQPs struct{ calls []int }

func (f *fakeQPs) ForceError(n int) int { f.calls = append(f.calls, n); return n }

func TestComponentFaults(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b")
	in := NewInjector(eng, net, 1)
	st := &fakeStaller{}
	rs := &fakeRestarter{}
	qp := &fakeQPs{}
	in.RegisterStaller("dma@a", st)
	in.RegisterGateway("ingress", rs)
	in.RegisterQPs("qp@a", func() []QPErrorTarget { return []QPErrorTarget{qp} })
	core := sim.NewProcessor(eng, "c0", 1.0)
	in.RegisterCores("cores@a", core)
	in.Install(Schedule{
		{At: 0, For: 5 * time.Millisecond, Fault: DMAStall{Target: "dma@a"}},
		{At: time.Millisecond, For: 2 * time.Millisecond, Fault: GatewayRestart{Target: "ingress"}},
		{At: 2 * time.Millisecond, Fault: QPError{Target: "qp@a", Count: 3}},
		{At: 3 * time.Millisecond, For: time.Millisecond, Fault: SlowCores{Target: "cores@a", Factor: 0.5}},
	})
	eng.RunUntil(3500 * time.Microsecond)
	if st.total != 5*time.Millisecond {
		t.Fatalf("stall total %v, want 5ms", st.total)
	}
	if len(rs.pauses) != 1 || rs.pauses[0] != 2*time.Millisecond {
		t.Fatalf("restart pauses %v, want [2ms]", rs.pauses)
	}
	if len(qp.calls) != 1 || qp.calls[0] != 3 {
		t.Fatalf("qp calls %v, want [3]", qp.calls)
	}
	if core.Speed() != 0.5 {
		t.Fatalf("core speed %v inside slow window, want 0.5", core.Speed())
	}
	eng.RunUntil(4 * time.Millisecond)
	if core.Speed() != 1.0 {
		t.Fatalf("core speed %v after revert, want 1.0", core.Speed())
	}
	// Apply-only faults (stall, restart, qp-error) are never reverted.
	if in.Applied() != 4 || in.Reverted() != 1 {
		t.Fatalf("applied=%d reverted=%d, want 4/1", in.Applied(), in.Reverted())
	}
}

// TestMissingTargetPanics: a schedule naming an unregistered target panics
// at Install, before any of its events is armed.
func TestMissingTargetPanics(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b")
	in := NewInjector(eng, net, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered staller did not panic at Install")
		}
		if n := eng.Pending(); n != 0 {
			t.Fatalf("refused schedule armed %d events", n)
		}
	}()
	in.Install(Schedule{
		{At: 0, Fault: NodeDown{Node: "a"}},
		{At: 0, For: time.Millisecond, Fault: DMAStall{Target: "ghost"}},
	})
}

// TestCheckNamesFirstUnknown: Check accepts a schedule whose every node and
// target resolves, and otherwise names the first name that does not, for
// each fault kind.
func TestCheckNamesFirstUnknown(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b")
	in := NewInjector(eng, net, 1)
	in.RegisterStaller("dma@a", &fakeStaller{})
	in.RegisterGateway("ingress", &fakeRestarter{})
	in.RegisterQPs("qp@a", func() []QPErrorTarget { return nil })
	in.RegisterCores("cores@a", sim.NewProcessor(eng, "c0", 1.0))
	ok := Schedule{
		{Fault: LinkDown{From: "a", To: "b"}},
		{Fault: LinkLoss{From: "b", To: "a", Prob: 0.1}},
		{Fault: LinkJitter{From: "a", To: "b"}},
		{Fault: NodeDown{Node: "b"}},
		{Fault: Partition{A: []fabric.NodeID{"a"}, B: []fabric.NodeID{"b"}}},
		{Fault: NodeCrash{Node: "b", QPs: "qp@a"}},
		{Fault: NodeCrash{Node: "b"}},
		{Fault: DMAStall{Target: "dma@a"}},
		{Fault: SlowCores{Target: "cores@a", Factor: 0.5}},
		{Fault: QPError{Target: "qp@a"}},
		{Fault: GatewayRestart{Target: "ingress"}},
	}
	if err := in.Check(ok); err != nil {
		t.Fatalf("Check refused a resolvable schedule: %v", err)
	}
	for _, tc := range []struct {
		fault   Fault
		unknown string
	}{
		{LinkDown{From: "a", To: "z"}, `"z"`},
		{LinkLoss{From: "z", To: "a"}, `"z"`},
		{LinkJitter{From: "a", To: "z"}, `"z"`},
		{NodeDown{Node: "z"}, `"z"`},
		{Partition{A: []fabric.NodeID{"a"}, B: []fabric.NodeID{"b", "z"}}, `"z"`},
		{NodeCrash{Node: "z", QPs: "qp@a"}, `"z"`},
		{NodeCrash{Node: "b", QPs: "qp@z"}, `"qp@z"`},
		{DMAStall{Target: "dma@z"}, `"dma@z"`},
		{SlowCores{Target: "cores@z", Factor: 0.5}, `"cores@z"`},
		{QPError{Target: "qp@z"}, `"qp@z"`},
		{GatewayRestart{Target: "nope"}, `"nope"`},
	} {
		err := in.Check(append(ok[:len(ok):len(ok)], Event{Fault: tc.fault}))
		if err == nil || !strings.Contains(err.Error(), tc.unknown) ||
			!strings.Contains(err.Error(), fmt.Sprintf("event %d", len(ok))) {
			t.Errorf("%s: Check = %v, want event %d naming %s", tc.fault.Label(), err, len(ok), tc.unknown)
		}
	}
}

func TestNodeCrashErrorsQPsOnRestart(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b")
	in := NewInjector(eng, net, 1)
	qp := &fakeQPs{}
	in.RegisterQPs("qp@a", func() []QPErrorTarget { return []QPErrorTarget{qp} })
	in.Install(Schedule{{
		At: time.Millisecond, For: 2 * time.Millisecond,
		Fault: NodeCrash{Node: "b", QPs: "qp@a"},
	}})
	eng.RunUntil(2 * time.Millisecond)
	if !net.Down("b") || len(qp.calls) != 0 {
		t.Fatal("crash window wrong: node should be down, QPs untouched")
	}
	eng.RunUntil(4 * time.Millisecond)
	if net.Down("b") {
		t.Fatal("node did not restart")
	}
	// Restart drops the surviving side's QP state: ForceError(0) = all.
	if !reflect.DeepEqual(qp.calls, []int{0}) {
		t.Fatalf("qp calls %v, want [0] after restart", qp.calls)
	}
}

func TestLinkStormDeterministic(t *testing.T) {
	build := func() Schedule {
		eng, net := newNet(t, 1, "a", "b", "c")
		in := NewInjector(eng, net, 99)
		return in.LinkStorm([]fabric.NodeID{"a", "b", "c"},
			10*time.Millisecond, 50*time.Millisecond, 20, 3*time.Millisecond)
	}
	s1, s2 := build(), build()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed produced different storms")
	}
	for i, ev := range s1 {
		if ev.At < 10*time.Millisecond || ev.At >= 60*time.Millisecond {
			t.Fatalf("event %d at %v outside storm span", i, ev.At)
		}
		if ev.For <= 0 || ev.For > 3*time.Millisecond {
			t.Fatalf("event %d duration %v outside (0, 3ms]", i, ev.For)
		}
	}
	// A different seed must give a different storm (decorrelation check).
	eng, net := newNet(t, 1, "a", "b", "c")
	in := NewInjector(eng, net, 100)
	s3 := in.LinkStorm([]fabric.NodeID{"a", "b", "c"},
		10*time.Millisecond, 50*time.Millisecond, 20, 3*time.Millisecond)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical storms")
	}
}

func TestStormSelfLoopFree(t *testing.T) {
	eng, net := newNet(t, 1, "a", "b", "c", "d")
	in := NewInjector(eng, net, 5)
	s := in.LinkStorm([]fabric.NodeID{"a", "b", "c", "d"},
		0, time.Millisecond, 200, time.Millisecond)
	for _, ev := range s {
		switch f := ev.Fault.(type) {
		case LinkDown:
			if f.From == f.To {
				t.Fatalf("self-loop outage %v", f)
			}
		case LinkLoss:
			if f.From == f.To {
				t.Fatalf("self-loop loss %v", f)
			}
			if f.Prob < 0.05 || f.Prob >= 0.35 {
				t.Fatalf("loss prob %v outside [0.05, 0.35)", f.Prob)
			}
		case LinkJitter:
			if f.From == f.To {
				t.Fatalf("self-loop jitter %v", f)
			}
		}
	}
}
