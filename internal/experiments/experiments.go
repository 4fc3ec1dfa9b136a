// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and appendices) on the synthetic substitute datasets. Each
// experiment returns a FigureResult holding the same series the paper
// plots, so shapes and ratios can be compared directly; absolute numbers
// differ because the substrate is a single-process simulator rather than a
// 12-core Spark cluster (see README, "Reproducing the paper's evaluation").
//
// The registry maps experiment IDs (the paper's figure numbers) to
// runners; cmd/dbest-bench and the root bench_test.go both drive it.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Config sizes an experiment run. The zero value is usable: Normalize fills
// laptop-scale defaults that finish each figure in seconds.
type Config struct {
	Rows        int     // physical fact-table rows
	Scale       float64 // logical rows per physical row
	SampleSizes []int   // DBEst/baseline sample sizes to sweep
	PerAF       int     // queries per aggregate function
	Seed        int64
	Workers     int // parallel evaluation workers (0 = GOMAXPROCS)
}

// Normalize fills defaults in place and returns the config.
func (c Config) Normalize() Config {
	if c.Rows <= 0 {
		c.Rows = 400_000
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.SampleSizes) == 0 {
		c.SampleSizes = []int{10_000, 100_000}
	}
	if c.PerAF <= 0 {
		c.PerAF = 20
	}
	return c
}

// Series is one plottable line/bar group: a name and y-values aligned with
// the figure's x-axis labels.
type Series struct {
	Name   string
	Values []float64
}

// FigureResult is the regenerated content of one paper figure.
type FigureResult struct {
	ID     string // e.g. "fig2"
	Title  string // the paper's caption
	XLabel string
	Labels []string // x-axis tick labels
	YLabel string
	Series []Series
	Notes  []string
	// Elapsed is the wall time of the whole experiment.
	Elapsed time.Duration
}

// AddSeries appends a named series.
func (fr *FigureResult) AddSeries(name string, values ...float64) {
	fr.Series = append(fr.Series, Series{Name: name, Values: values})
}

// Note appends a free-text observation (lessons-learned style).
func (fr *FigureResult) Note(format string, args ...interface{}) {
	fr.Notes = append(fr.Notes, fmt.Sprintf(format, args...))
}

// Print renders the figure as an aligned text table.
func (fr *FigureResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", fr.ID, fr.Title)
	if fr.XLabel != "" || fr.YLabel != "" {
		fmt.Fprintf(w, "   (%s vs %s)\n", fr.YLabel, fr.XLabel)
	}
	// Header row.
	fmt.Fprintf(w, "%-28s", "")
	for _, l := range fr.Labels {
		fmt.Fprintf(w, "%14s", l)
	}
	fmt.Fprintln(w)
	for _, s := range fr.Series {
		fmt.Fprintf(w, "%-28s", s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(w, "%14.5g", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range fr.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintf(w, "   elapsed: %v\n\n", fr.Elapsed.Round(time.Millisecond))
}

// Runner executes one experiment.
type Runner func(cfg Config) (*FigureResult, error)

// registry maps experiment IDs to runners; populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

// descriptions holds one-line summaries for listing.
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(id string) string { return descriptions[id] }

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (*FigureResult, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	t0 := time.Now()
	fr, err := r(cfg.Normalize())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	fr.Elapsed = time.Since(t0)
	return fr, nil
}

// pct renders a fraction as a percentage value for figure series.
func pct(x float64) float64 { return 100 * x }

// secs renders a duration in seconds for figure series.
func secs(d time.Duration) float64 { return d.Seconds() }

// mb renders bytes as megabytes for figure series.
func mb(b int) float64 { return float64(b) / (1 << 20) }
