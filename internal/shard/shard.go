// Package shard implements range sharding for DBEst model ensembles: split
// planning (partitioning a table's x-domain into K contiguous range shards
// with near-equal row counts) and the merging of per-shard partial
// aggregates into one answer. The shape mirrors the parallel-generation
// strategy of Barakat et al. (PAPERS.md): partition the domain, solve the
// shards independently, merge canonical partial results. The package is
// deliberately free of model and engine dependencies — it deals only in
// bounds, row indices and (count, sum, sum-of-squares) moment triples — so
// both training (core) and execution (exec) can build on it without cycles.
package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// MaxShards bounds K: past a few hundred shards the per-shard samples stop
// being meaningfully sized and the catalog drowns in keys.
const MaxShards = 256

// Split is the partition of an x-domain into contiguous range shards.
// Shard i nominally covers [Bounds[i], Bounds[i+1]); for routing and
// pruning the first shard extends to -inf and the last to +inf, so rows
// that drift outside the planned domain after ingestion still have an
// owning shard.
type Split struct {
	Col    string    // the x-column the domain was split on
	Bounds []float64 // K+1 strictly increasing cut points
}

// K returns the number of shards.
func (s *Split) K() int { return len(s.Bounds) - 1 }

// Lo and Hi return shard i's planned finite bounds.
func (s *Split) Lo(i int) float64 { return s.Bounds[i] }
func (s *Split) Hi(i int) float64 { return s.Bounds[i+1] }

// Assign returns the shard owning x: the number of interior cut points at
// or below x, so a row exactly on a cut belongs to the shard starting
// there. Values outside the planned domain route to the edge shards.
func (s *Split) Assign(x float64) int {
	cuts := s.Bounds[1:s.K()] // interior cut points
	return sort.Search(len(cuts), func(j int) bool { return cuts[j] > x })
}

// OverlappingRanges returns the shards whose range intersects [lb, ub], in
// shard order: shard i (of k, with planned bounds from bounds(i)) is kept
// unless it lies wholly outside, where the first shard's lower and the last
// shard's upper bound are open-ended, matching Assign. The bounds come from
// the shard models (the executor's form) rather than from a Split.
func OverlappingRanges(k int, bounds func(i int) (lo, hi float64), lb, ub float64) []int {
	var out []int
	for i := 0; i < k; i++ {
		lo, hi := bounds(i)
		if i == 0 {
			lo = math.Inf(-1)
		}
		if i == k-1 {
			hi = math.Inf(1)
		}
		if lo <= ub && lb <= hi {
			out = append(out, i)
		}
	}
	return out
}

// Owns reports whether shard i of k, with planned bounds [lo, hi), owns
// value x. It is the single source of the ownership rule — the first
// shard's lower and the last shard's upper bound are open-ended, and a
// value exactly on a cut belongs to the shard starting there — shared by
// query pruning, staleness routing (ingest) and per-shard retraining
// (core). It matches Split.Assign on the split the bounds came from.
func Owns(i, k int, lo, hi, x float64) bool {
	return (i == 0 || x >= lo) && (i == k-1 || x < hi)
}

// Plan computes a K-way range split of xs with near-equal per-shard row
// counts (quantile cut points). Duplicate cut points — heavy ties in the
// data — are collapsed, so the returned split may have fewer than k shards;
// it always has at least one. An empty xs or k < 1 is an error.
func Plan(col string, xs []float64, k int) (*Split, error) {
	if len(xs) == 0 {
		return nil, errors.New("shard: cannot split an empty domain")
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", k)
	}
	if k > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d exceeds the maximum of %d", k, MaxShards)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	bounds := make([]float64, 0, k+1)
	bounds = append(bounds, lo)
	for i := 1; i < k; i++ {
		cut := sorted[i*len(sorted)/k]
		if cut > bounds[len(bounds)-1] && cut < hi {
			bounds = append(bounds, cut)
		}
	}
	bounds = append(bounds, hi)
	if hi <= lo {
		// Constant column: a single degenerate shard covering the point.
		bounds = []float64{lo, lo}
	}
	return &Split{Col: col, Bounds: bounds}, nil
}

// Partition assigns every x to its owning shard, returning per-shard row
// index lists in row order — the training substrate for per-shard
// reservoirs. Row order is preserved within each shard so a maintained
// reservoir mirror can replay the same stream.
func (s *Split) Partition(xs []float64) [][]int {
	out := make([][]int, s.K())
	for i, x := range xs {
		g := s.Assign(x)
		out[g] = append(out[g], i)
	}
	return out
}

// Mergeable is the canonical partial-result contract shared by every
// split-solve-merge estimator in the engine: moment triples from sharded
// model ensembles, HyperLogLog register banks and Count-Min counter arrays
// (internal/sketch), and — once serving goes distributed — cross-node
// partials gathered over the network. Merge folds other into the receiver;
// implementations may assume other is the same concrete type and shape
// (same shard family, same sketch parameters) and must return an error,
// not panic, when it is not. Merging must be commutative and associative
// so a gather can fold partials in any arrival order.
type Mergeable interface {
	Merge(other Mergeable) error
}

// Partial is one shard's mergeable contribution to an aggregate over a
// range: the estimated selected-row count and the first two moments of the
// aggregated column over the selection. COUNT/SUM/AVG/VARIANCE/STDDEV all
// merge from these triples; PERCENTILE merges through Quantile instead.
type Partial struct {
	Count float64 // estimated rows selected in this shard
	Sum   float64 // estimated Σy over the selection
	SumSq float64 // estimated Σy² over the selection
	// Support reports whether the shard's density has any mass in the
	// range; a shard with no support contributes nothing and must not flip
	// an AVG/VARIANCE merge into a spurious zero.
	Support bool
}

// Merge folds another moment triple into the receiver: moments add
// (a shard without support contributes exact zeros) and support ORs.
// Partial implements Mergeable.
func (p *Partial) Merge(other Mergeable) error {
	o, ok := other.(*Partial)
	if !ok {
		return fmt.Errorf("shard: cannot merge %T into a moment Partial", other)
	}
	p.Count += o.Count
	p.Sum += o.Sum
	p.SumSq += o.SumSq
	p.Support = p.Support || o.Support
	return nil
}

// MergePartials folds a slice of moment triples into one through the
// Mergeable interface — the single merge kernel behind every Merge*
// aggregate below and behind exec.ShardMerge.
func MergePartials(ps []Partial) Partial {
	var acc Partial
	for i := range ps {
		// Merging a Partial into a Partial cannot fail.
		_ = acc.Merge(&ps[i])
	}
	return acc
}

// MergeCount merges partial COUNTs: counts add.
func MergeCount(ps []Partial) float64 {
	return MergePartials(ps).Count
}

// MergeSum merges partial SUMs: sums add. Like SQL, a selection with no
// support sums to zero.
func MergeSum(ps []Partial) float64 {
	return MergePartials(ps).Sum
}

// MergeAvg merges partial AVGs as a count-weighted mean. ok is false when
// no shard had density support in the range (the empty-selection case).
func MergeAvg(ps []Partial) (v float64, ok bool) {
	m := MergePartials(ps)
	if !m.Support || m.Count <= 0 {
		return 0, false
	}
	return m.Sum / m.Count, true
}

// MergeVariance merges partial VARIANCEs through the moment identity
// Var = E[y²] − E[y]² over the pooled selection.
func MergeVariance(ps []Partial) (v float64, ok bool) {
	t := MergePartials(ps)
	if !t.Support || t.Count <= 0 {
		return 0, false
	}
	m := t.Sum / t.Count
	v = t.SumSq/t.Count - m*m
	if v < 0 {
		v = 0
	}
	return v, true
}

// MergeStdDev merges partial STDDEVs via MergeVariance.
func MergeStdDev(ps []Partial) (float64, bool) {
	v, ok := MergeVariance(ps)
	if !ok {
		return 0, false
	}
	return math.Sqrt(v), true
}

// Quantile solves the merged percentile: the x in [lo, hi] at which the
// ensemble's combined selected mass reaches fraction p of the total.
// massLE(x) must return the combined selected count mass at or below x
// (summed across the overlapping shards); it must be nondecreasing in x.
// ok is false when the range holds no mass.
func Quantile(p, lo, hi float64, massLE func(x float64) float64) (v float64, ok bool) {
	if p < 0 || p > 1 || lo > hi || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, false
	}
	total := massLE(hi)
	if total <= 0 || math.IsNaN(total) {
		return 0, false
	}
	target := p * total
	for i := 0; i < 200 && hi-lo > 1e-12*math.Max(1, math.Abs(hi)+math.Abs(lo)); i++ {
		mid := 0.5 * (lo + hi)
		if massLE(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), true
}
