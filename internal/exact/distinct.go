package exact

import (
	"fmt"
	"sort"

	"dbest/internal/sketch"
	"dbest/internal/table"
)

// Exact ground truth for the sketch estimators: a predicate-aware
// COUNT(DISTINCT col) and an exact TOP-K occurrence scan. They serve two
// roles — the exact fallback path for distinct/TOP queries no sketch
// covers (e.g. with WHERE predicates, which whole-table sketches cannot
// narrow), and the oracle the sketch accuracy harness measures against.
// Values are canonicalized exactly like the sketches canonicalize them
// (sketch.FloatKey for numeric columns, raw strings otherwise), so oracle
// and estimate count the same value universe.

// valueKey is the canonical per-row value form shared with the sketches.
func valueKey(c *table.Column, i int) string {
	if c.Type == table.String {
		return c.Strings[i]
	}
	return sketch.FloatKey(c.Float(i))
}

// DistinctCount computes the exact COUNT(DISTINCT col) over the rows of tb
// satisfying every predicate. With no predicates it delegates to the
// type-native table scan.
func DistinctCount(tb *table.Table, col string, predicates []Range, equals []Equal) (float64, error) {
	c := tb.Column(col)
	if c == nil {
		return 0, fmt.Errorf("exact: no column %q", col)
	}
	if len(predicates) == 0 && len(equals) == 0 {
		n, err := tb.DistinctCount(col)
		return float64(n), err
	}
	set := make(map[string]struct{})
	err := Each(tb, predicates, equals, func(i int) { set[valueKey(c, i)] = struct{}{} })
	return float64(len(set)), err
}

// TopValues computes the exact TOP k(col) over the rows of tb satisfying
// every predicate: the k most frequent values with their exact occurrence
// counts, ordered by count descending (ties by value ascending, matching
// the sketch's deterministic listing order).
func TopValues(tb *table.Table, col string, k int, predicates []Range, equals []Equal) ([]sketch.Entry, error) {
	if k < 1 {
		return nil, fmt.Errorf("exact: TOP wants a positive rank count, got %d", k)
	}
	c := tb.Column(col)
	if c == nil {
		return nil, fmt.Errorf("exact: no column %q", col)
	}
	counts := make(map[string]uint64)
	if err := Each(tb, predicates, equals, func(i int) { counts[valueKey(c, i)]++ }); err != nil {
		return nil, err
	}
	out := make([]sketch.Entry, 0, len(counts))
	for v, n := range counts {
		out = append(out, sketch.Entry{Value: v, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}
