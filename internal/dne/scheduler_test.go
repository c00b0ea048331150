package dne

import (
	"testing"
	"testing/quick"

	"nadino/internal/mempool"
)

func desc(tenant string, size int) mempool.Descriptor {
	return mempool.Descriptor{Tenant: tenant, Len: int32(size)}
}

func TestFCFSOrder(t *testing.T) {
	s := NewFCFS()
	s.Enqueue("a", mempool.Descriptor{Tenant: "a", Seq: 1})
	s.Enqueue("b", mempool.Descriptor{Tenant: "b", Seq: 2})
	s.Enqueue("a", mempool.Descriptor{Tenant: "a", Seq: 3})
	var got []uint64
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, d.Seq)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("FCFS order = %v", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestDWRRWeightedShares(t *testing.T) {
	s := NewDWRR(2048)
	s.SetWeight("t1", 6)
	s.SetWeight("t2", 1)
	s.SetWeight("t3", 2)
	// All tenants deeply backlogged with equal-size messages.
	for i := 0; i < 3000; i++ {
		s.Enqueue("t1", desc("t1", 1024))
		s.Enqueue("t2", desc("t2", 1024))
		s.Enqueue("t3", desc("t3", 1024))
	}
	counts := map[string]int{}
	for i := 0; i < 1800; i++ {
		d, ok := s.Next()
		if !ok {
			t.Fatal("scheduler ran dry while backlogged")
		}
		counts[d.Tenant]++
	}
	total := counts["t1"] + counts["t2"] + counts["t3"]
	shares := map[string]float64{}
	for k, v := range counts {
		shares[k] = float64(v) / float64(total)
	}
	want := map[string]float64{"t1": 6.0 / 9, "t2": 1.0 / 9, "t3": 2.0 / 9}
	for k, w := range want {
		if shares[k] < w-0.03 || shares[k] > w+0.03 {
			t.Errorf("tenant %s share = %.3f, want ~%.3f (counts=%v)", k, shares[k], w, counts)
		}
	}
}

func TestDWRRByteFairnessWithMixedSizes(t *testing.T) {
	// Equal weights but one tenant sends 4x larger messages: it should get
	// ~1/4 the message rate (equal bytes).
	s := NewDWRR(4096)
	s.SetWeight("small", 1)
	s.SetWeight("big", 1)
	for i := 0; i < 4000; i++ {
		s.Enqueue("small", desc("small", 1024))
		s.Enqueue("big", desc("big", 4096))
	}
	bytes := map[string]int{}
	for i := 0; i < 2000; i++ {
		d, ok := s.Next()
		if !ok {
			break
		}
		bytes[d.Tenant] += msgBytes(d)
	}
	ratio := float64(bytes["small"]) / float64(bytes["big"])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("byte share ratio = %.2f, want ~1.0 (bytes=%v)", ratio, bytes)
	}
}

func TestDWRRIdleTenantDoesNotAccumulateCredit(t *testing.T) {
	// A tenant that was idle must not burst past its share when it joins:
	// deficit resets when the queue empties.
	s := NewDWRR(2048)
	s.SetWeight("steady", 1)
	s.SetWeight("bursty", 1)
	for i := 0; i < 100; i++ {
		s.Enqueue("steady", desc("steady", 1024))
	}
	for i := 0; i < 50; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("ran dry")
		}
	}
	// Bursty joins late with a flood.
	for i := 0; i < 100; i++ {
		s.Enqueue("bursty", desc("bursty", 1024))
	}
	counts := map[string]int{}
	for i := 0; i < 50; i++ {
		d, ok := s.Next()
		if !ok {
			break
		}
		counts[d.Tenant]++
	}
	if counts["bursty"] > counts["steady"]*2 {
		t.Fatalf("late joiner burst past its share: %v", counts)
	}
}

func TestDWRRSingleTenantDrains(t *testing.T) {
	s := NewDWRR(64) // quantum smaller than messages: needs multiple rounds
	s.SetWeight("t", 1)
	for i := 0; i < 10; i++ {
		s.Enqueue("t", desc("t", 1024))
	}
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("drained %d of 10", n)
	}
}

// Property: DWRR conserves messages for any enqueue pattern.
func TestDWRRConservationProperty(t *testing.T) {
	f := func(sizes []uint16, tenantsRaw uint8) bool {
		nTenants := int(tenantsRaw%4) + 1
		s := NewDWRR(2048)
		names := []string{"a", "b", "c", "d"}[:nTenants]
		for i, w := range []int{1, 2, 3, 4}[:nTenants] {
			s.SetWeight(names[i], w)
		}
		for i, sz := range sizes {
			s.Enqueue(names[i%nTenants], desc(names[i%nTenants], int(sz%8192)))
		}
		got := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			got++
		}
		return got == len(sizes) && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
