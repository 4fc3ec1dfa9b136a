// Package workload generates the randomized query batches of the paper's
// evaluation (§4.1: "200 queries are randomly generated for each of COUNT,
// SUM, AVG, PERCENTILE, VARIANCE and STDDEV", with "the query range varying
// from 0.1%, 0.5%, 1% to 10% of the range-attribute's domain") and the
// relative-error metrics and histograms of §4.2–§4.6.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dbest/internal/exact"
	"dbest/internal/table"
)

// Query is one generated range-aggregate query.
type Query struct {
	AF     exact.AggFunc
	XCol   string
	YCol   string
	Lb, Ub float64
	P      float64 // percentile point
}

// Request converts the query to an exact.Request (for ground truth and
// sample-based baselines), with optional GROUP BY.
func (q Query) Request(group string) exact.Request {
	return exact.Request{
		AF: q.AF, Y: q.YCol, P: q.P, Group: group,
		Predicates: []exact.Range{{Column: q.XCol, Lb: q.Lb, Ub: q.Ub}},
	}
}

// Spec describes a batch of random queries over one column pair.
type Spec struct {
	XCol, YCol string
	AFs        []exact.AggFunc
	// RangeFrac is the query-range width as a fraction of the x domain
	// (the paper's "selectivity": 0.001, 0.01, 0.1, ...).
	RangeFrac float64
	PerAF     int // queries per aggregate function
	Seed      int64
	P         float64 // percentile point (default 0.5)
}

// Generate builds PerAF random range queries per AF over the x domain of tb.
func Generate(tb *table.Table, spec Spec) ([]Query, error) {
	xs, err := tb.Floats(spec.XCol)
	if err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("workload: table %s is empty", tb.Name)
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return nil, fmt.Errorf("workload: column %s has a degenerate domain", spec.XCol)
	}
	if spec.RangeFrac <= 0 || spec.RangeFrac > 1 {
		return nil, fmt.Errorf("workload: RangeFrac %v outside (0, 1]", spec.RangeFrac)
	}
	if spec.PerAF <= 0 {
		spec.PerAF = 1
	}
	p := spec.P
	if p == 0 {
		p = 0.5
	}
	rng := rand.New(rand.NewSource(spec.Seed + 41))
	width := (hi - lo) * spec.RangeFrac
	var out []Query
	for _, af := range spec.AFs {
		for i := 0; i < spec.PerAF; i++ {
			start := lo + rng.Float64()*(hi-lo-width)
			ycol := spec.YCol
			switch af {
			case exact.Percentile, exact.Variance, exact.StdDev:
				// These are the paper's density-based AFs (§2.3.1):
				// PERCENTILE(x, p) a la HIVE, and VARIANCE/STDDEV over the
				// predicate column itself, needing only D(x).
				ycol = spec.XCol
			}
			out = append(out, Query{
				AF: af, XCol: spec.XCol, YCol: ycol,
				Lb: start, Ub: start + width, P: p,
			})
		}
	}
	return out, nil
}

// RelErrFloor is the denominator floor of RelErr: truths with magnitude
// below it are measured against the floor instead, so the metric degrades
// continuously into a bounded absolute error near zero rather than blowing
// up (or, as an earlier version did, silently switching to |got| — an
// absolute error masquerading as relative at want == 0 exactly).
const RelErrFloor = 1.0

// RelErr is the relative error metric of the paper's figures, in the
// denominator-floored form |got − want| / max(|want|, RelErrFloor). For
// |want| >= 1 — every aggregate the harnesses measure — it is the plain
// relative error; below that the floor keeps it finite and monotone in
// |got − want|, which the router's observed-error feedback requires.
func RelErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), RelErrFloor)
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Histogram bins values into equal-width buckets over [0, max] — the error
// histograms of Figs. 17, 22 and 24. Values above max land in the last bin.
type Histogram struct {
	Max    float64
	Counts []int
}

// NewHistogram builds a histogram of the values with the given bin count.
func NewHistogram(values []float64, bins int, max float64) *Histogram {
	if bins <= 0 {
		bins = 10
	}
	if max <= 0 {
		for _, v := range values {
			if v > max {
				max = v
			}
		}
		if max == 0 {
			max = 1
		}
	}
	h := &Histogram{Max: max, Counts: make([]int, bins)}
	for _, v := range values {
		i := int(v / max * float64(bins))
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
	}
	return h
}

// FractionBelow reports the fraction of observations in bins strictly below
// threshold (e.g. "more than 80% of the 57 groups have a relative error
// < 7%", §4.6).
func (h *Histogram) FractionBelow(threshold float64) float64 {
	total := 0
	below := 0
	w := h.Max / float64(len(h.Counts))
	for i, c := range h.Counts {
		total += c
		if float64(i+1)*w <= threshold {
			below += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(below) / float64(total)
}
