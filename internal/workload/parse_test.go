package workload

import (
	"strings"
	"testing"
	"time"

	"nadino/internal/sim"
)

func TestParseTraceBasic(t *testing.T) {
	in := `# recorded 2-chain trace
0,checkout
12.5,checkout,3

250,browse
`
	rp, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Arrival{
		{At: 0, Chain: "checkout", Count: 1},
		{At: 12500 * time.Nanosecond, Chain: "checkout", Count: 3},
		{At: 250 * time.Microsecond, Chain: "browse", Count: 1},
	}
	if len(rp.Arrivals) != len(want) {
		t.Fatalf("got %d arrivals, want %d", len(rp.Arrivals), len(want))
	}
	for i, a := range rp.Arrivals {
		if a != want[i] {
			t.Fatalf("arrival %d = %+v, want %+v", i, a, want[i])
		}
	}
	if rp.Total() != 5 {
		t.Fatalf("total = %d", rp.Total())
	}
	if got := rp.Chains(); len(got) != 2 || got[0] != "checkout" || got[1] != "browse" {
		t.Fatalf("chains = %v", got)
	}
}

func TestParseTraceRejects(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"missing chain", "10\n"},
		{"too many fields", "10,a,1,2,50,extra\n"},
		{"bad clone", "10,a,1,extra\n"},
		{"negative clone", "10,a,1,-1\n"},
		{"huge clone", "10,a,1,1000\n"},
		{"bad hedge", "10,a,1,2,soon\n"},
		{"nan hedge", "10,a,1,2,nan\n"},
		{"negative hedge", "10,a,1,2,-50\n"},
		{"bad timestamp", "ten,a\n"},
		{"negative timestamp", "-1,a\n"},
		{"nan timestamp", "nan,a\n"},
		{"time travel", "10,a\n5,b\n"},
		{"empty chain", "10,\n"},
		{"chain with space", "10,a b\n"},
		{"zero count", "10,a,0\n"},
		{"negative count", "10,a,-2\n"},
		{"huge count", "10,a,100000000\n"},
	} {
		if _, err := ParseTrace(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		}
	}
}

func TestReplayRoundTrip(t *testing.T) {
	in := "0,a,2\n0,b\n99.25,a\n1000,c,7\n"
	rp, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseTrace(strings.NewReader(rp.String()))
	if err != nil {
		t.Fatalf("canonical form rejected: %v\n%s", err, rp.String())
	}
	if rp.String() != again.String() {
		t.Fatalf("canonical form not stable:\n%s\nvs\n%s", rp.String(), again.String())
	}
}

// TestParseTraceSpeculative pins the speculation fields: clone factors and
// hedge deadlines parse, plain lines leave both zero, and the canonical
// rendering keeps the historical 3-field form for non-speculative arrivals
// while round-tripping speculative ones exactly.
func TestParseTraceSpeculative(t *testing.T) {
	in := "0,a,2\n10,a,1,3\n20,b,1,0,250\n30,b,4,2,62.5\n"
	rp, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Arrival{
		{At: 0, Chain: "a", Count: 2},
		{At: 10 * time.Microsecond, Chain: "a", Count: 1, Clone: 3},
		{At: 20 * time.Microsecond, Chain: "b", Count: 1, Hedge: 250 * time.Microsecond},
		{At: 30 * time.Microsecond, Chain: "b", Count: 4, Clone: 2, Hedge: 62500 * time.Nanosecond},
	}
	for i, a := range rp.Arrivals {
		if a != want[i] {
			t.Fatalf("arrival %d = %+v, want %+v", i, a, want[i])
		}
	}
	canon := rp.String()
	if strings.Contains(strings.Split(canon, "\n")[0], ",0,") {
		t.Fatalf("plain arrival rendered with speculation fields: %q", canon)
	}
	again, err := ParseTrace(strings.NewReader(canon))
	if err != nil {
		t.Fatalf("canonical form rejected: %v\n%s", err, canon)
	}
	for i, a := range again.Arrivals {
		if a != rp.Arrivals[i] {
			t.Fatalf("round trip changed arrival %d: %+v vs %+v", i, a, rp.Arrivals[i])
		}
	}
	// Shifting moves only time, never the speculation overrides.
	sh := rp.Shifted(time.Millisecond)
	if sh.Arrivals[3].Clone != 2 || sh.Arrivals[3].Hedge != 62500*time.Nanosecond {
		t.Fatalf("Shifted dropped speculation fields: %+v", sh.Arrivals[3])
	}
}

func TestReplayShifted(t *testing.T) {
	rp, err := ParseTrace(strings.NewReader("0,a\n100,b,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	sh := rp.Shifted(time.Millisecond)
	want := []Arrival{
		{At: time.Millisecond, Chain: "a", Count: 1},
		{At: time.Millisecond + 100*time.Microsecond, Chain: "b", Count: 2},
	}
	for i, a := range sh.Arrivals {
		if a != want[i] {
			t.Fatalf("shifted arrival %d = %+v, want %+v", i, a, want[i])
		}
	}
	if rp.Arrivals[0].At != 0 {
		t.Fatal("Shifted mutated the original replay")
	}
}

func TestReplayStart(t *testing.T) {
	rp, err := ParseTrace(strings.NewReader("0,a\n100,b,2\n100,a\n500,a\n"))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	defer eng.Stop()
	e := &echo{eng: eng}
	(&Driver{Replay: rp}).Start(eng, e.submit)
	eng.RunUntil(time.Millisecond)
	if got := strings.Join(e.chains, ""); got != "abbaa" {
		t.Fatalf("submit order = %q", got)
	}
	for i, at := range []time.Duration{0, 100 * time.Microsecond, 100 * time.Microsecond,
		100 * time.Microsecond, 500 * time.Microsecond} {
		if e.at[i] != at || e.clients[i] != i {
			t.Fatalf("arrival %d at %v as client %d, want %v as client %d", i, e.at[i], e.clients[i], at, i)
		}
	}
	// Same-instant arrivals share one event: the spawn-time one and the
	// three at 100µs, plus one for the arrival at 500µs.
	if n := eng.Fired(); n != 3 {
		t.Fatalf("replay fired %d events, want 3", n)
	}
}

// FuzzParseTrace hammers the parser with arbitrary bytes. Properties: never
// panic; on accept, the canonical rendering must itself parse, and
// canonicalization must be idempotent (one float truncation step is allowed
// between the raw input and its first canonical form, none after).
func FuzzParseTrace(f *testing.F) {
	f.Add("0,checkout\n")
	f.Add("# comment\n\n12.5,browse,3\n12.5,browse\n900,checkout,2\n")
	f.Add("1e3,a\n1e6,b,1000\n")
	f.Add("0.0015,x\n")
	f.Add("10,a,1,extra\n")
	f.Add("0,a,1,3\n5,b,2,0,250\n10,c,1,2,62.5\n")
	f.Add("0,a,1,0,0\n1,b,1,1,0\n")
	f.Add("7,a,1,-1\n8,b,1,2,nan\n")
	f.Add("nan,a\n")
	f.Add(strings.Repeat("5,ab\n", 200))
	f.Fuzz(func(t *testing.T, in string) {
		rp, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		canon := rp.String()
		rp2, err := ParseTrace(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ninput: %q\ncanon: %q", err, in, canon)
		}
		if again := rp2.String(); again != canon {
			t.Fatalf("canonicalization not idempotent:\nfirst:  %q\nsecond: %q", canon, again)
		}
		if rp2.Total() != rp.Total() || len(rp2.Arrivals) != len(rp.Arrivals) {
			t.Fatalf("round trip changed shape: %d/%d arrivals, %d/%d total",
				len(rp.Arrivals), len(rp2.Arrivals), rp.Total(), rp2.Total())
		}
	})
}
