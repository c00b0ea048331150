package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Arrival is one recorded request arrival: Count requests for Chain at At.
// Clone and Hedge are optional per-arrival speculation overrides (recorded
// traces can carry the production tail-cutting policy): Clone > 0 forces
// that clone factor, Hedge > 0 forces a hedged retry with that deadline.
type Arrival struct {
	At    time.Duration
	Chain string
	Count int
	Clone int
	Hedge time.Duration
}

// Speculative reports whether the arrival carries speculation overrides.
func (a Arrival) Speculative() bool { return a.Clone > 0 || a.Hedge > 0 }

// Replay is a parsed arrival trace — the recorded-production counterpart of
// TraceGen's synthetic Poisson/Zipf process. Arrivals are non-decreasing in
// time.
type Replay struct {
	Arrivals []Arrival
}

// Parser limits: they bound hostile inputs (the parser is fuzzed) without
// constraining any realistic trace.
const (
	maxTraceLines = 1 << 20   // one million arrivals per file
	maxTraceTus   = 1e15      // ~31 years in µs, far under Duration overflow
	maxTraceCount = 1_000_000 // requests folded into one line
	maxChainName  = 256
	maxTraceClone = 64 // clone factors past this are trace corruption, not policy
)

// ParseTrace reads a replay trace: one `t_us,chain[,count[,clone[,hedge_us]]]`
// arrival per line, `#` comments and blank lines ignored. Timestamps are
// microseconds (fractions allowed), must be finite, non-negative and
// non-decreasing; count defaults to 1. The optional clone factor and hedge
// deadline (microseconds) default to 0 — no speculation override. Errors
// carry 1-based line numbers.
func ParseTrace(r io.Reader) (*Replay, error) {
	rp := &Replay{}
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 64*1024), 64*1024)
	lineNo := 0
	last := time.Duration(-1)
	for scan.Scan() {
		lineNo++
		if lineNo > maxTraceLines {
			return nil, fmt.Errorf("workload: trace exceeds %d lines", maxTraceLines)
		}
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 || len(fields) > 5 {
			return nil, fmt.Errorf("workload: line %d: want t_us,chain[,count[,clone[,hedge_us]]], got %d fields", lineNo, len(fields))
		}
		tus, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad timestamp: %v", lineNo, err)
		}
		if math.IsNaN(tus) || math.IsInf(tus, 0) || tus < 0 || tus > maxTraceTus {
			return nil, fmt.Errorf("workload: line %d: timestamp %v outside [0,%g]µs", lineNo, tus, float64(maxTraceTus))
		}
		at := time.Duration(tus * float64(time.Microsecond))
		if at < last {
			return nil, fmt.Errorf("workload: line %d: timestamp %v before previous arrival", lineNo, at)
		}
		chain := strings.TrimSpace(fields[1])
		if err := checkChainName(chain); err != nil {
			return nil, fmt.Errorf("workload: line %d: %v", lineNo, err)
		}
		count := 1
		if len(fields) >= 3 {
			count, err = strconv.Atoi(strings.TrimSpace(fields[2]))
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: bad count: %v", lineNo, err)
			}
			if count < 1 || count > maxTraceCount {
				return nil, fmt.Errorf("workload: line %d: count %d outside [1,%d]", lineNo, count, maxTraceCount)
			}
		}
		clone := 0
		if len(fields) >= 4 {
			clone, err = strconv.Atoi(strings.TrimSpace(fields[3]))
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: bad clone factor: %v", lineNo, err)
			}
			if clone < 0 || clone > maxTraceClone {
				return nil, fmt.Errorf("workload: line %d: clone factor %d outside [0,%d]", lineNo, clone, maxTraceClone)
			}
		}
		hedge := time.Duration(0)
		if len(fields) == 5 {
			hus, err := strconv.ParseFloat(strings.TrimSpace(fields[4]), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: bad hedge deadline: %v", lineNo, err)
			}
			if math.IsNaN(hus) || math.IsInf(hus, 0) || hus < 0 || hus > maxTraceTus {
				return nil, fmt.Errorf("workload: line %d: hedge deadline %v outside [0,%g]µs", lineNo, hus, float64(maxTraceTus))
			}
			hedge = time.Duration(hus * float64(time.Microsecond))
		}
		last = at
		rp.Arrivals = append(rp.Arrivals, Arrival{At: at, Chain: chain, Count: count, Clone: clone, Hedge: hedge})
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("workload: read trace: %w", err)
	}
	return rp, nil
}

// checkChainName rejects names the trace format cannot round-trip.
func checkChainName(s string) error {
	if s == "" {
		return fmt.Errorf("empty chain name")
	}
	if len(s) > maxChainName {
		return fmt.Errorf("chain name longer than %d bytes", maxChainName)
	}
	for _, r := range s {
		if r == ',' || r == '#' || unicode.IsControl(r) || unicode.IsSpace(r) {
			return fmt.Errorf("chain name %q contains %q", s, r)
		}
	}
	return nil
}

// String renders the replay in canonical trace form — parse(render(rp))
// reproduces rp exactly, which is the parser's fuzz oracle. Arrivals without
// speculation overrides keep the historical 3-field form so pre-speculation
// traces canonicalize exactly as before.
func (rp *Replay) String() string {
	var b strings.Builder
	for _, a := range rp.Arrivals {
		fmt.Fprintf(&b, "%s,%s,%d",
			strconv.FormatFloat(float64(a.At.Nanoseconds())/1e3, 'g', -1, 64), a.Chain, a.Count)
		if a.Speculative() {
			fmt.Fprintf(&b, ",%d,%s", a.Clone,
				strconv.FormatFloat(float64(a.Hedge.Nanoseconds())/1e3, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Shifted returns a copy of the replay with every arrival delayed by d —
// used to line a recorded schedule up with the start of a measured window.
func (rp *Replay) Shifted(d time.Duration) *Replay {
	out := &Replay{Arrivals: make([]Arrival, len(rp.Arrivals))}
	for i, a := range rp.Arrivals {
		a.At += d
		out.Arrivals[i] = a
	}
	return out
}

// Total reports the number of requests in the trace.
func (rp *Replay) Total() int {
	n := 0
	for _, a := range rp.Arrivals {
		n += a.Count
	}
	return n
}

// Duration reports the time of the last arrival.
func (rp *Replay) Duration() time.Duration {
	if len(rp.Arrivals) == 0 {
		return 0
	}
	return rp.Arrivals[len(rp.Arrivals)-1].At
}

// Chains lists the distinct chains in first-appearance order.
func (rp *Replay) Chains() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range rp.Arrivals {
		if !seen[a.Chain] {
			seen[a.Chain] = true
			out = append(out, a.Chain)
		}
	}
	return out
}
