package main

import (
	"math"
	"sort"
)

// The percentile rule of the benchmark: a timing is reported as its median
// and the highest percentile that still has at least ten samples beyond it,
// together with the sample count. A percentile asked for by name (p95, p99,
// p99.9) is lowered to that highest supported one when the sample is too
// small to carry it; the sample count is printed beside it.

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedQuantile lowers q to the highest quantile of an n-sample that
// has minBeyond samples beyond it, and never below the median.
func supportedQuantile(n int, q float64) float64 {
	if n <= 0 {
		return q
	}
	if hi := 1 - float64(minBeyond)/float64(n); q > hi {
		q = hi
	}
	return math.Max(q, 0.5)
}

// quantile reads the nearest-rank q-quantile of an ascending sample (NaN
// when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts xs in place and returns its median (0 for an empty sample,
// the reading of a per-layer metric the workload never reached).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// summary is one latency sample reduced by the percentile rule.
type summary struct {
	N                        int
	P50, P95, P99, P999, Max float64
}

// summarize sorts xs in place and applies the percentile rule. An empty
// sample summarizes to zeros.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	s.P50 = quantile(xs, 0.5)
	s.P95 = quantile(xs, supportedQuantile(len(xs), 0.95))
	s.P99 = quantile(xs, supportedQuantile(len(xs), 0.99))
	s.P999 = quantile(xs, supportedQuantile(len(xs), 0.999))
	s.Max = xs[len(xs)-1]
	return s
}

// tally is the failed/attempted accounting: an operation that returns an
// error, a non-200, a non-finite value or an answer from another path than
// its class expects is attempted and failed, and so misses any latency
// bound.
type tally struct {
	attempted, failed int
}

func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// share is failed ÷ attempted (0 when nothing was attempted).
func (t tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ratio is part ÷ (part + rest), 0 when both are 0 — the useful-work ratios
// of the per-layer counters.
func ratio(part, rest uint64) float64 {
	if part+rest == 0 {
		return 0
	}
	return float64(part) / float64(part+rest)
}
