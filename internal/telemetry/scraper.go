package telemetry

import (
	"time"

	"nadino/internal/metrics"
	"nadino/internal/sim"
)

// track is one exported time series plus the metadata it was derived from.
type track struct {
	meta   Meta
	series *metrics.Series
}

// Scraper samples every probe of a Registry on a fixed virtual-time period
// into append-only series. It is driven by the engine's Ticker, so samples
// land at deterministic instants and the whole output is a pure function of
// the seed. One registry feeds at most one scraper.
type Scraper struct {
	reg    *Registry
	probes []probe // snapshot of reg at Scrape time, fixes series order
	period time.Duration

	tracks []track
	// lastV holds the previous cumulative reading for counter and rate
	// probes, indexed by probe position.
	lastV []float64
	stop  func()

	// onSample hooks run after each scrape period's samples land, in
	// engine context — the live SLO watchdog evaluates here.
	onSample []func(now time.Duration)

	// retain > 0 bounds each series to roughly that many newest points
	// (see Retain) — batch runs keep everything, daemons must not.
	retain int
}

// Scrape starts sampling the registry every period of virtual time,
// beginning one period from now. Call Stop to detach; stopping is optional
// when the engine simply halts. Probes registered after Scrape are not
// sampled (register first, scrape second).
func (r *Registry) Scrape(eng *sim.Engine, period time.Duration) *Scraper {
	probes := r.snapshot()
	sc := &Scraper{reg: r, probes: probes, period: period, lastV: make([]float64, len(probes))}
	for _, p := range probes {
		switch p.kind {
		case kindHist:
			for _, q := range []string{".p50", ".p99"} {
				m := Meta{Name: p.meta.Name + q, Labels: p.meta.Labels}
				sc.tracks = append(sc.tracks, track{meta: m, series: metrics.NewSeries(m.Key())})
			}
		default:
			sc.tracks = append(sc.tracks, track{meta: p.meta, series: metrics.NewSeries(p.meta.Key())})
		}
	}
	// Seed the cumulative baselines at start so the first window's rates
	// cover (start, start+period] rather than (0, start+period].
	for i, p := range probes {
		switch p.kind {
		case kindCounter:
			sc.lastV[i] = float64(p.counter.Value())
		case kindRate:
			sc.lastV[i] = p.fn()
		}
	}
	sc.stop = eng.Ticker(period, sc.sample)
	return sc
}

// sample appends one reading per track. Engine context.
func (sc *Scraper) sample(now time.Duration) {
	secs := sc.period.Seconds()
	ti := 0
	for i, p := range sc.probes {
		switch p.kind {
		case kindCounter:
			v := float64(p.counter.Value())
			sc.tracks[ti].series.Add(now, (v-sc.lastV[i])/secs)
			sc.lastV[i] = v
			ti++
		case kindGauge:
			sc.tracks[ti].series.Add(now, p.fn())
			ti++
		case kindRate:
			v := p.fn()
			sc.tracks[ti].series.Add(now, (v-sc.lastV[i])/secs)
			sc.lastV[i] = v
			ti++
		case kindHist:
			sc.tracks[ti].series.Add(now, float64(p.hist.P50())/float64(time.Second))
			sc.tracks[ti+1].series.Add(now, float64(p.hist.P99())/float64(time.Second))
			ti += 2
		}
	}
	for _, fn := range sc.onSample {
		fn(now)
	}
	// Trim lazily at 2x the retention bound so steady state amortizes the
	// copies: each series oscillates between retain and 2*retain points.
	if sc.retain > 0 {
		for _, t := range sc.tracks {
			if pts := t.series.Points; len(pts) >= 2*sc.retain {
				n := copy(pts, pts[len(pts)-sc.retain:])
				t.series.Points = pts[:n]
			}
		}
	}
}

// Retain bounds every series to between n and 2n of its newest points,
// trimmed as samples land. A long-running daemon scrapes forever; without
// a bound the append-only series are an unbounded leak. n <= 0 restores
// keep-everything (the batch-run default).
func (sc *Scraper) Retain(n int) { sc.retain = n }

// OnSample registers fn to run after each scrape period's samples land, in
// engine context. The live watchdog attaches here so rules see every window
// the moment it closes.
func (sc *Scraper) OnSample(fn func(now time.Duration)) {
	sc.onSample = append(sc.onSample, fn)
}

// Stop detaches the scraper from the engine clock.
func (sc *Scraper) Stop() { sc.stop() }

// Registry returns the registry the scraper samples; WritePrometheus
// renders its current state.
func (sc *Scraper) Registry() *Registry { return sc.reg }

// Period reports the scrape period.
func (sc *Scraper) Period() time.Duration { return sc.period }

// Series returns the collected series in registration order.
func (sc *Scraper) Series() []*metrics.Series {
	out := make([]*metrics.Series, len(sc.tracks))
	for i, t := range sc.tracks {
		out[i] = t.series
	}
	return out
}

// Lookup finds a series by its canonical key (Meta.Key), or nil.
func (sc *Scraper) Lookup(key string) *metrics.Series {
	for _, t := range sc.tracks {
		if t.meta.Key() == key {
			return t.series
		}
	}
	return nil
}

// SummaryEntry condenses one series for end-of-run archiving.
type SummaryEntry struct {
	Key  string  `json:"key"`
	Last float64 `json:"last"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// Summary returns the end-of-run gauge summary in registration order: the
// final sample, the whole-run mean, and the peak of every series.
func (sc *Scraper) Summary() []SummaryEntry {
	out := make([]SummaryEntry, 0, len(sc.tracks))
	for _, t := range sc.tracks {
		e := SummaryEntry{Key: t.meta.Key()}
		pts := t.series.Points
		if n := len(pts); n > 0 {
			e.Last = pts[n-1].V
			e.Mean = t.series.MeanBetween(0, pts[n-1].T)
			e.Max = t.series.Max()
		}
		out = append(out, e)
	}
	return out
}
