package exec

import (
	"context"
	"errors"
	"math"
	"testing"

	"dbest/internal/core"
	"dbest/internal/exact"
)

var allAggs = []exact.AggFunc{exact.Count, exact.Sum, exact.Avg,
	exact.Variance, exact.StdDev, exact.Percentile}

// poisonSet returns a copy of ms whose univariate model has no density
// estimator: any read of D at query time panics.
func poisonSet(ms *core.ModelSet) *core.ModelSet {
	c, u := *ms, *ms.Uni
	u.D = nil
	c.Uni = &u
	return &c
}

// edgeSpans returns ranges inside, straddling and outside [lo, hi],
// including near-empty slivers at the edges and unbounded ranges.
func edgeSpans(lo, hi float64) [][2]float64 {
	w := hi - lo
	inf := math.Inf(1)
	return [][2]float64{
		{lo + 0.2*w, lo + 0.6*w}, {lo + 0.45*w, lo + 0.46*w},
		{lo - w, lo + 0.1*w}, {lo - w, lo + 1e-6*w}, {lo - w, lo + 1e-14*w}, {lo - w, lo},
		{hi - 0.1*w, hi + w}, {hi - 1e-6*w, hi + w}, {hi - 1e-14*w, hi + w}, {hi, hi + w},
		{lo - 2*w, lo - w}, {hi + w, hi + 2*w}, {lo + 0.5*w, lo + 0.5*w},
		{-inf, inf}, {-inf, lo + 0.3*w}, {lo + 0.7*w, inf},
	}
}

func noSupport(err error) bool { return errors.Is(err, core.ErrNoSupport) }

// The kernel tests bind every operator the same way: the span in slots 0
// and 1, the PERCENTILE point 0.3 in slot 2.
var spanRange = Range{Lb: 0, Ub: 1}

const spanPoint = 2

func spanEnv(sp [2]float64) *Env {
	return &Env{Workers: 1, Binds: Binds{{Num: sp[0]}, {Num: sp[1]}, {Num: 0.3}}}
}

// TestShardMergePoisonedDensity: an ensemble answers every aggregate,
// PERCENTILE included, without reading any shard's density estimator —
// shards without one reproduce the clean answers and bounds bit for bit.
func TestShardMergePoisonedDensity(t *testing.T) {
	tb := linearTable(t, 20000)
	sets, err := core.TrainShardedContext(context.Background(), tb, "x", "y", 4, &core.TrainConfig{SampleSize: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := make([]*core.ModelSet, len(sets))
	for i, ms := range sets {
		if ms.EvalKernel() != "grid" {
			t.Fatalf("shard %d kernel = %s, want grid", i, ms.EvalKernel())
		}
		poisoned[i] = poisonSet(ms)
	}
	core.ResetEvalCounters()
	for _, af := range allAggs {
		for _, yIsX := range []bool{false, true} {
			for _, sp := range edgeSpans(0, 19999) {
				env := spanEnv(sp)
				want, werr := NewShardMerge("agg", af, sets, spanRange, yIsX, spanPoint).Eval(env, nil)
				got, gerr := NewShardMerge("agg", af, poisoned, spanRange, yIsX, spanPoint).Eval(env, nil)
				if (werr == nil) != (gerr == nil) || noSupport(werr) != noSupport(gerr) {
					t.Fatalf("%v %v: poisoned err %v, clean err %v", af, sp, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if got.Value != want.Value || got.PredRelErr != want.PredRelErr || got.CI != want.CI ||
					math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Fatalf("%v yIsX=%v %v: poisoned %+v, clean %+v", af, yIsX, sp, got, want)
				}
			}
		}
	}
	if c := core.ReadEvalCounters(); c.GridFallbacks != 0 {
		t.Fatalf("gridded ensemble counted %d fallbacks", c.GridFallbacks)
	}
	core.ResetEvalCounters()
}

// TestShardedK1EqualsUnsharded is the ROADMAP 1(b) identity: a one-shard
// merge over a model and the plain evaluation of the same model agree on
// every aggregate, on the error bound, and on which spans are empty —
// including spans straddling the support edges, where the two paths used to
// decide "has support" from different mass kernels.
func TestShardedK1EqualsUnsharded(t *testing.T) {
	ms := trainLinear(t, linearTable(t, 20000))
	lo, hi := ms.Uni.D.Support()
	for _, af := range allAggs {
		for _, yIsX := range []bool{false, true} {
			if af == exact.Sum && yIsX {
				// The plain SUM(x) integrates D·R, the partial ∫x·D: the same
				// quantity through two estimators, equal only to model error.
				continue
			}
			for _, sp := range edgeSpans(lo, hi) {
				env := spanEnv(sp)
				want, werr := NewModelEval("agg", af, ms, []Range{spanRange}, yIsX, spanPoint).Eval(env, nil)
				got, gerr := NewShardMerge("agg", af, []*core.ModelSet{ms}, spanRange, yIsX, spanPoint).Eval(env, nil)
				if (werr == nil) != (gerr == nil) || noSupport(werr) != noSupport(gerr) {
					t.Fatalf("%v yIsX=%v %v: K=1 err %v, unsharded err %v", af, yIsX, sp, gerr, werr)
				}
				if werr != nil {
					continue
				}
				// COUNT keeps the sliver below the support threshold that the
				// partial drops; VARIANCE cancels two O(E[y]²) terms. STDDEV is
				// the square root of that cancelled variance, and a root
				// magnifies a residue near zero — on an edge sliver a variance
				// of 3.6e-12 on one path and 0 on the other, both within the
				// variance tolerance, are 1.9e-6 apart as deviations — so the
				// two deviations are compared as the variances they came from.
				gotV, wantV := got.Value, want.Value
				tol := 1e-9 * math.Abs(wantV)
				switch af {
				case exact.Count:
					tol += 1e-12 * ms.Uni.N
				case exact.StdDev:
					gotV, wantV = gotV*gotV, wantV*wantV
					fallthrough
				case exact.Variance:
					tol = 1e-6 * math.Max(math.Abs(wantV), 1)
				case exact.Percentile:
					tol = 1e-9 * (hi - lo)
				}
				if math.Abs(gotV-wantV) > tol {
					t.Fatalf("%v yIsX=%v %v: K=1 %v, unsharded %v", af, yIsX, sp, got.Value, want.Value)
				}
				// A merged COUNT/SUM of exactly 0 (no shard had support) carries
				// no bound: a relative error of nothing says nothing.
				if got.Value != 0 && math.Abs(got.PredRelErr-want.PredRelErr) > 1e-12*want.PredRelErr {
					t.Fatalf("%v yIsX=%v %v: K=1 PredRelErr %v, unsharded %v", af, yIsX, sp, got.PredRelErr, want.PredRelErr)
				}
			}
		}
	}
}
