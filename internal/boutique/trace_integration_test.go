package boutique

import (
	"testing"
	"time"

	"nadino/internal/core"
	"nadino/internal/ingress"
	"nadino/internal/workload"
)

// TestTraceDrivenBoutique marries the synthetic production trace (Poisson
// arrivals, diurnal rate, Zipf chain popularity) with the full NADINO
// cluster: every generated invocation must complete, and the observed
// chain mix must follow the trace's popularity skew.
func TestTraceDrivenBoutique(t *testing.T) {
	c := core.NewCluster(ClusterConfig(core.NadinoDNE, 1))
	defer c.Eng.Stop()

	gen := &workload.TraceGen{
		Chains:           MeasuredChains(),
		ZipfS:            1.0,
		BaseRPS:          4000,
		DiurnalAmplitude: 0.5,
		Period:           200 * time.Millisecond,
	}
	counts := make(map[string]uint64)
	submitted := 0
	(&workload.Driver{Trace: gen}).Start(c.Eng, func(chain string, n, clone int, hedge time.Duration, reply func(ingress.Response)) {
		counts[chain]++
		submitted++
		c.SubmitChainSpec(chain, n+1, clone, hedge, reply)
	})
	c.Eng.RunUntil(c.P.QPSetupTime + 400*time.Millisecond)
	// Drain the tail.
	c.Eng.RunUntil(c.Eng.Now() + 50*time.Millisecond)

	if submitted < 1000 {
		t.Fatalf("trace submitted only %d invocations", submitted)
	}
	done := c.Completed.Total()
	if done < uint64(submitted)*98/100 {
		t.Fatalf("completed %d of %d trace invocations", done, submitted)
	}
	// Zipf s=1 over three chains: shares ~ 0.55, 0.27, 0.18, and each
	// chain's completions match its submissions.
	total := uint64(0)
	for _, ch := range MeasuredChains() {
		total += counts[ch]
	}
	first := float64(counts[MeasuredChains()[0]]) / float64(total)
	last := float64(counts[MeasuredChains()[2]]) / float64(total)
	if first < 0.45 || last > 0.28 {
		t.Errorf("popularity skew off: first=%.2f last=%.2f", first, last)
	}
	for _, ch := range MeasuredChains() {
		if got := c.ChainLatency[ch].Count(); got < counts[ch]*98/100 {
			t.Errorf("chain %s completed %d of %d", ch, got, counts[ch])
		}
	}
}
