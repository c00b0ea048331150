package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nadino/internal/trace"
)

// Profile names one scraper for export; a run that instruments several
// sweep points exports one profile per point.
type Profile struct {
	Name    string
	Scraper *Scraper
}

// fnum renders a float the same way on every platform (shortest
// round-trippable form), keeping exported files byte-stable.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV renders the scraped series in long form: one `series,t_us,value`
// row per sample, series in registration order.
func WriteCSV(w io.Writer, sc *Scraper) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "series,t_us,value")
	for _, t := range sc.tracks {
		key := t.meta.Key()
		for _, p := range t.series.Points {
			fmt.Fprintf(bw, "%s,%s,%s\n", key, fnum(float64(p.T.Nanoseconds())/1e3), fnum(p.V))
		}
	}
	return bw.Flush()
}

// jsonSeries is the JSON export shape of one series.
type jsonSeries struct {
	Key    string       `json:"key"`
	Name   string       `json:"name"`
	Labels []Label      `json:"labels,omitempty"`
	Points [][2]float64 `json:"points"` // [t_us, value]
}

// WriteJSON renders the scraped series as a JSON array in registration
// order, points as [t_us, value] pairs.
func WriteJSON(w io.Writer, sc *Scraper) error {
	out := make([]jsonSeries, 0, len(sc.tracks))
	for _, t := range sc.tracks {
		js := jsonSeries{Key: t.meta.Key(), Name: t.meta.Name, Labels: t.meta.Labels, Points: [][2]float64{}}
		for _, p := range t.series.Points {
			js.Points = append(js.Points, [2]float64{float64(p.T.Nanoseconds()) / 1e3, p.V})
		}
		out = append(out, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// CounterTracks converts the scraped series into Chrome counter timelines
// for trace.WriteChrome, prefixing each with the profile name so several
// runs coexist in one trace file.
func CounterTracks(prefix string, sc *Scraper) []trace.CounterTrack {
	out := make([]trace.CounterTrack, 0, len(sc.tracks))
	for _, t := range sc.tracks {
		ct := trace.CounterTrack{Name: prefix + t.meta.Key()}
		for _, p := range t.series.Points {
			ct.Points = append(ct.Points, trace.CounterPoint{T: p.T, V: p.V})
		}
		out = append(out, ct)
	}
	return out
}

// profileSummary is the summary.json shape for one profile.
type profileSummary struct {
	Profile string         `json:"profile"`
	Period  float64        `json:"period_us"`
	Series  []SummaryEntry `json:"series"`
}

// WriteSummary renders every profile's end-of-run gauge summary as JSON —
// the document cmd/benchjson archives alongside benchmark numbers.
func WriteSummary(w io.Writer, profiles []Profile) error {
	out := make([]profileSummary, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, profileSummary{
			Profile: p.Name,
			Period:  float64(p.Scraper.Period().Nanoseconds()) / 1e3,
			Series:  p.Scraper.Summary(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// fileSafe maps a profile name onto a filesystem-safe stem.
func fileSafe(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// ExportDir writes the full export set for profiles into dir (created if
// missing): per profile `<name>.series.csv`, `<name>.series.json` and
// `<name>.prom`, plus the cross-profile `summary.json`, a standalone
// Chrome counter trace `counters.trace.json`, and the static
// `dashboard.html`. It returns the written paths in a fixed order. The
// `.prom` file is the profile registry's exposition at export time — what
// /metrics would serve at the end of the run.
func ExportDir(dir string, profiles []Profile) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	var err error
	// emit writes one file; after the first failure it does nothing, so
	// ExportDir returns the files written before the error.
	emit := func(name string, render func(io.Writer) error) {
		if err != nil {
			return
		}
		path := filepath.Join(dir, name)
		var f *os.File
		if f, err = os.Create(path); err != nil {
			return
		}
		if err = render(f); err != nil {
			f.Close()
			return
		}
		if err = f.Close(); err == nil {
			written = append(written, path)
		}
	}
	var counters []trace.CounterTrack
	for _, p := range profiles {
		p := p
		stem := fileSafe(p.Name)
		emit(stem+".series.csv", func(w io.Writer) error { return WriteCSV(w, p.Scraper) })
		emit(stem+".series.json", func(w io.Writer) error { return WriteJSON(w, p.Scraper) })
		emit(stem+".prom", func(w io.Writer) error { return WritePrometheus(w, p.Scraper.Registry()) })
		counters = append(counters, CounterTracks(p.Name+"/", p.Scraper)...)
	}
	emit("summary.json", func(w io.Writer) error { return WriteSummary(w, profiles) })
	emit("counters.trace.json", func(w io.Writer) error { return trace.WriteChrome(w, nil, counters) })
	emit("dashboard.html", func(w io.Writer) error { return WriteDashboard(w, profiles) })
	return written, err
}
