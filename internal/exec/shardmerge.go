package exec

import (
	"fmt"
	"math"

	"dbest/internal/core"
	"dbest/internal/exact"
	"dbest/internal/parallel"
	"dbest/internal/shard"
	"dbest/internal/table"
)

// ShardMerge answers one aggregate from a sharded model ensemble: it prunes
// the ensemble to the shards whose range overlaps the predicate, evaluates
// each survivor's partial aggregate (count and moment integrals) across the
// worker pool, and merges the partials into one answer — COUNT and SUM add,
// AVG is the count-weighted mean, VARIANCE/STDDEV recombine through the
// moment identity, and PERCENTILE bisects the merged selected-mass CDF.
// This is the scaling move of the sharding subsystem: a query touching 1/K
// of the domain pays for ~1 shard's integration, not the whole model.
type ShardMerge struct {
	AggName string
	AF      exact.AggFunc
	// Sets is the complete ensemble in shard order; every execution prunes
	// it to the shards its own statement's range overlaps.
	Sets  []*core.ModelSet
	Range Range
	YIsX  bool
	P     int // bind slot of the PERCENTILE point, NoSlot without one
}

// NewShardMerge builds the operator answering one aggregate from the
// sharded ensemble sets (complete, in shard order).
func NewShardMerge(name string, af exact.AggFunc, sets []*core.ModelSet, r Range, yIsX bool, p int) AggOperator {
	return &ShardMerge{AggName: name, AF: af, Sets: sets, Range: r, YIsX: yIsX, P: p}
}

func (s *ShardMerge) Operator() string { return "ShardMerge" }

func (s *ShardMerge) Detail(b Binds) string {
	lb, ub := s.Range.bounds(b)
	idx := s.overlapping(lb, ub)
	return fmt.Sprintf("%s key=%s shards=%d/%d range=%s kernel=grid", s.AggName, s.Sets[0].BaseKey(),
		len(idx), len(s.Sets), rangeString(b, s.Range)) + boundsTag(s.worstRelErr(lb, ub, idx))
}

// worstRelErr is the largest overlapping shard's predicted relative error —
// a cheap conservative bound for the EXPLAIN annotation (the merged answer
// at Eval time is at least this tight). 0 when any member lacks a fitted
// predictor, since then the merged bound is unknown too.
func (s *ShardMerge) worstRelErr(lb, ub float64, idx []int) float64 {
	worst := 0.0
	for _, k := range idx {
		re := s.Sets[k].Uni.PredictRelErr(s.AF, lb, ub)
		if re <= 0 {
			return 0
		}
		if re > worst {
			worst = re
		}
	}
	return worst
}

func (s *ShardMerge) Children(b Binds) []Node {
	return []Node{&ModelEval{ShardModels: len(s.overlapping(s.Range.bounds(b)))}}
}

// overlapping prunes the ensemble to the shards intersecting [lb, ub],
// treating the edge shards as open-ended so out-of-domain predicates still
// route to the shard that owns ingested out-of-domain rows.
func (s *ShardMerge) overlapping(lb, ub float64) []int {
	return shard.OverlappingRanges(len(s.Sets), func(i int) (float64, float64) {
		return s.Sets[i].ShardLo, s.Sets[i].ShardHi
	}, lb, ub)
}

func (s *ShardMerge) Eval(env *Env, _ *table.Table) (AggregateResult, error) {
	lb, ub := s.Range.bounds(env.Binds)
	idx := s.overlapping(lb, ub)
	if env.Shards != nil {
		env.Shards.Evaluated.Add(uint64(len(idx)))
		env.Shards.Pruned.Add(uint64(len(s.Sets) - len(idx)))
	}
	if s.AF == exact.Percentile {
		v, err := s.percentile(point(env.Binds, s.P), lb, ub, idx)
		if err != nil {
			return AggregateResult{}, wrapEmptyRegion(s.AggName, err)
		}
		// No per-shard partials to weight by: the pooled quantile inherits
		// the worst member's prediction.
		return stampAgg(s.AggName, v, s.worstRelErr(lb, ub, idx)), nil
	}
	needSum := s.AF != exact.Count
	needSq := s.AF == exact.Variance || s.AF == exact.StdDev
	partials := make([]shard.Partial, len(idx))
	res := make([]float64, len(idx)) // per-shard predicted relative error
	parallel.ForEach(len(idx), env.Workers, func(k int) {
		m := s.Sets[idx[k]].Uni
		var f float64
		partials[k], f = m.Partial(lb, ub, s.YIsX, needSum, needSq)
		res[k] = m.EB.RelErr(s.AF, f)
	})
	v, ok := mergePartials(s.AF, partials)
	if !ok {
		return AggregateResult{}, wrapEmptyRegion(s.AggName, core.ErrNoSupport)
	}
	return stampAgg(s.AggName, v, mergeRelErr(s.AF, partials, res)), nil
}

// stampAgg builds the aggregate result, attaching the CI implied by the
// merged relative error (re <= 0 leaves the bounds unknown).
func stampAgg(name string, v, re float64) AggregateResult {
	ar := AggregateResult{Name: name, Value: v}
	if re > 0 {
		ar.PredRelErr = re
		h := math.Abs(v) * re
		ar.CI = [2]float64{v - h, v + h}
	}
	return ar
}

// mergeRelErr combines the overlapping shards' predicted relative errors res
// — each taken at the mass fraction its shard's Partial was computed from —
// into one bound for the merged answer, through the same moment structure
// mergePartials uses. Treating shard errors as independent, additive
// aggregates combine in quadrature on their absolute errors:
//
//	COUNT: √(Σ (cᵢ·reᵢ)²) / Σ cᵢ
//	SUM:   √(Σ (sumᵢ·reᵢ)²) / |Σ sumᵢ|
//
// AVG is the count-weighted mean of the members' relative errors, and
// VARIANCE/STDDEV conservatively take the worst member. Any member without
// a fitted predictor makes the merged bound unknown (0).
func mergeRelErr(af exact.AggFunc, ps []shard.Partial, res []float64) float64 {
	for _, re := range res {
		if re <= 0 {
			return 0
		}
	}
	switch af {
	case exact.Count:
		var sq, tot float64
		for k, p := range ps {
			sq += p.Count * res[k] * p.Count * res[k]
			tot += p.Count
		}
		if tot <= 0 {
			return 0
		}
		return math.Sqrt(sq) / tot
	case exact.Sum:
		var sq, tot float64
		for k, p := range ps {
			sq += p.Sum * res[k] * p.Sum * res[k]
			tot += p.Sum
		}
		if tot == 0 {
			return 0
		}
		return math.Sqrt(sq) / math.Abs(tot)
	case exact.Avg:
		var wsum, tot float64
		for k, p := range ps {
			wsum += p.Count * res[k]
			tot += p.Count
		}
		if tot <= 0 {
			return 0
		}
		return wsum / tot
	default:
		worst := 0.0
		for _, re := range res {
			if re > worst {
				worst = re
			}
		}
		return worst
	}
}

// mergePartials dispatches the merge for one aggregate function. ok is
// false only for the aggregates that are undefined over an empty selection
// (AVG, VARIANCE, STDDEV); COUNT and SUM answer 0, like SQL.
func mergePartials(af exact.AggFunc, ps []shard.Partial) (float64, bool) {
	switch af {
	case exact.Count:
		return shard.MergeCount(ps), true
	case exact.Sum:
		return shard.MergeSum(ps), true
	case exact.Avg:
		return shard.MergeAvg(ps)
	case exact.Variance:
		return shard.MergeVariance(ps)
	case exact.StdDev:
		return shard.MergeStdDev(ps)
	default:
		return 0, false
	}
}

// percentile answers PERCENTILE(x, p) over the merged ensemble: the
// combined selected mass Σᵢ Nᵢ·Dᵢ([lb, x]) is a proper CDF over the
// selection, and bisecting it finds the pooled quantile without any shard
// knowing about its siblings. Each step reads the shards' grid CDFs (two
// table lookups a shard), not their O(bins) closed-form sums.
func (s *ShardMerge) percentile(p, lb, ub float64, idx []int) (float64, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("core: percentile point %v outside [0, 1]", p)
	}
	// Keep the shards with density support in the range (the empty-selection
	// rule every other aggregate applies) and bracket the bisection with
	// their union support, so an unbounded predicate still searches a finite
	// interval.
	lo, hi := math.Inf(1), math.Inf(-1)
	var live []*core.UniModel
	for _, k := range idx {
		m := s.Sets[k].Uni
		if part, _ := m.Partial(lb, ub, false, false, false); !part.Support {
			continue
		}
		live = append(live, m)
		slo, shi := m.Grid.Span()
		lo = math.Min(lo, slo)
		hi = math.Max(hi, shi)
	}
	lo = math.Max(lo, lb)
	hi = math.Min(hi, ub)
	if lo > hi {
		return 0, core.ErrNoSupport
	}
	massLE := func(x float64) float64 {
		t := 0.0
		for _, m := range live {
			t += m.Count(lb, x)
		}
		return t
	}
	v, ok := shard.Quantile(p, lo, hi, massLE)
	if !ok {
		return 0, core.ErrNoSupport
	}
	return v, nil
}
