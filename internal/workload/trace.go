package workload

import (
	"fmt"
	"math"
	"time"
)

// TraceGen synthesizes a production-like invocation trace: Poisson arrivals
// whose rate follows a diurnal curve, spread over chains with Zipf-skewed
// popularity — the shape of real FaaS traces (cf. the Azure Functions
// characterization) that locality-oblivious placement has to serve (§2).
type TraceGen struct {
	// Chains are the invocable targets, most popular first.
	Chains []string
	// ZipfS is the popularity skew exponent (1.0 ~= classic Zipf; 0 =
	// uniform).
	ZipfS float64
	// BaseRPS is the mean aggregate invocation rate.
	BaseRPS float64
	// DiurnalAmplitude in [0,1) modulates the rate sinusoidally:
	// rate(t) = BaseRPS * (1 + A*sin(2*pi*t/Period)), so the rate stays
	// positive.
	DiurnalAmplitude float64
	// Period is the diurnal cycle length (compressed in simulations) and
	// caps any one inter-arrival gap.
	Period time.Duration

	weights []float64
	totalW  float64
}

// prepare checks the trace and builds the Zipf popularity weights.
func (g *TraceGen) prepare() {
	if len(g.Chains) == 0 || !(g.BaseRPS > 0) || math.IsInf(g.BaseRPS, 1) ||
		!(g.DiurnalAmplitude >= 0 && g.DiurnalAmplitude < 1) || g.Period <= 0 {
		panic(fmt.Sprintf("workload: %v needs chains, a positive finite rate, "+
			"a diurnal amplitude in [0,1) and a positive period", g))
	}
	g.weights = make([]float64, len(g.Chains))
	g.totalW = 0
	for i := range g.Chains {
		w := 1.0 / math.Pow(float64(i+1), g.ZipfS)
		g.weights[i] = w
		g.totalW += w
	}
}

// Rate reports the target aggregate rate at virtual time t.
func (g *TraceGen) Rate(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t) / float64(g.Period)
	return g.BaseRPS * (1 + g.DiurnalAmplitude*math.Sin(phase))
}

// gap turns an Exp(1) draw into the wait before the next arrival after t:
// Poisson arrivals at Rate(t), no gap longer than one Period.
func (g *TraceGen) gap(exp float64, t time.Duration) time.Duration {
	return min(time.Duration(exp/g.Rate(t)*float64(time.Second)), g.Period)
}

// pick draws a chain by Zipf popularity.
func (g *TraceGen) pick(u float64) string {
	target := u * g.totalW
	for i, w := range g.weights {
		target -= w
		if target <= 0 {
			return g.Chains[i]
		}
	}
	return g.Chains[len(g.Chains)-1]
}

// String describes the trace.
func (g *TraceGen) String() string {
	return fmt.Sprintf("trace{%d chains, zipf=%.2f, base=%.0f rps, diurnal=%.0f%%/%v}",
		len(g.Chains), g.ZipfS, g.BaseRPS, 100*g.DiurnalAmplitude, g.Period)
}
