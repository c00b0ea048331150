package flightrec

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the flight-dump golden file")

// TestGoldenChrome pins the Chrome flight-dump bytes: a fixed event stream
// that wraps the ring, interleaves several actors and kinds, and lands on
// sub-microsecond timestamps. Regenerate with
// `go test ./internal/flightrec/ -update` only for an intended format change.
func TestGoldenChrome(t *testing.T) {
	now := time.Duration(0)
	r := New(16, func() time.Duration { return now })
	actors := []uint16{r.Actor("chaos"), r.Actor("dne@nodeA"), r.Actor("gw@nodeB"), r.Actor("slo/p99")}
	kinds := []Kind{KindChaosApply, KindDropNoRoute, KindGwDrop, KindQPError, KindSLOBreach, KindChaosRevert}
	for i := 0; i < 23; i++ {
		now = time.Duration(i)*1337*time.Microsecond + time.Duration(i*i)*time.Nanosecond
		r.Record(kinds[i%len(kinds)], actors[(i*3)%len(actors)], int64(i-5), int64(i*512))
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/flightrec/ -update` to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("flight dump drifted from golden file (%d vs %d bytes)\n--- got\n%s", buf.Len(), len(want), buf.Bytes())
	}
}
