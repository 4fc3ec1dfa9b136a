package core

import (
	"math"
	"math/rand"
	"testing"

	"dbest/internal/exact"
	"dbest/internal/quadrature"
	"dbest/internal/shard"
	"dbest/internal/table"
)

// mixTable builds a bimodal table: two Gaussian clumps of x with a smooth
// nonlinear y — enough structure that mass-refined knots and per-range
// ensemble selection both matter.
func mixTable(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if rng.Float64() < 0.6 {
			xs[i] = 30 + rng.NormFloat64()*5
		} else {
			xs[i] = 75 + rng.NormFloat64()*3
		}
		ys[i] = 0.05*xs[i]*xs[i] - 1.5*xs[i] + 40 + rng.NormFloat64()*3
	}
	tb := table.New("mix")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

// oracleQuad are the tolerances of the quadrature oracle: tight enough that
// the adaptive rule converges on the discontinuous D·R integrands, so a
// comparison measures the grid's error, not the oracle's.
var oracleQuad = &quadrature.Options{AbsTol: 1e-12, RelTol: 1e-9, MaxIter: 4096, InitialPanels: 32}

// quadMoment integrates x^power·D (yIsX) or D·R^power over [lb, ub] by
// adaptive quadrature over the closed-form density and the constituent the
// ensemble selects for the range: what the grid tabulates, computed the way
// models answered before it.
func quadMoment(t *testing.T, m *UniModel, yIsX bool, power int, lb, ub float64) float64 {
	t.Helper()
	reg := m.R.ForRange(lb, ub)
	res, err := quadrature.Integrate(func(x float64) float64 {
		v, r := m.D.Density(x), x
		if !yIsX {
			r = reg.Predict1(x)
		}
		for i := 0; i < power; i++ {
			v *= r
		}
		return v
	}, lb, ub, oracleQuad)
	if err != nil && err != quadrature.ErrMaxIter {
		t.Fatal(err)
	}
	return res.Value
}

// quadClip narrows [lb, ub] to the closed-form density's support and
// returns the mass there.
func quadClip(m *UniModel, lb, ub float64) (float64, float64, float64) {
	slo, shi := m.D.Support()
	lb, ub = math.Max(lb, slo), math.Min(ub, shi)
	return lb, ub, m.D.Mass(lb, ub)
}

// quadAggregate is the quadrature oracle of UniModel.Aggregate: the
// closed-form mass, quadMoment for the moments, bisection over the
// closed-form CDF for PERCENTILE.
func quadAggregate(t *testing.T, m *UniModel, af exact.AggFunc, lb, ub float64, yIsX bool, p float64) (float64, error) {
	t.Helper()
	lb, ub, f := quadClip(m, lb, ub)
	if af == exact.Count {
		return m.N * f, nil
	}
	if f < 1e-12 {
		if af == exact.Sum {
			return 0, nil
		}
		return 0, ErrNoSupport
	}
	switch af {
	case exact.Sum:
		return m.N * quadMoment(t, m, false, 1, lb, ub), nil
	case exact.Avg:
		return quadMoment(t, m, yIsX, 1, lb, ub) / f, nil
	case exact.Percentile:
		target := m.D.CDF(lb) + p*f
		return quadrature.Bisect(func(x float64) float64 { return m.D.CDF(x) - target }, lb, ub, 1e-10, 200)
	}
	ex := quadMoment(t, m, yIsX, 1, lb, ub) / f
	v := math.Max(quadMoment(t, m, yIsX, 2, lb, ub)/f-ex*ex, 0)
	if af == exact.StdDev {
		v = math.Sqrt(v)
	}
	return v, nil
}

// quadPartial is the quadrature oracle of UniModel.Partial.
func quadPartial(t *testing.T, m *UniModel, lb, ub float64, yIsX bool) shard.Partial {
	t.Helper()
	lb, ub, f := quadClip(m, lb, ub)
	if f < 1e-12 {
		return shard.Partial{}
	}
	return shard.Partial{Support: true, Count: m.N * f,
		Sum: m.N * quadMoment(t, m, yIsX, 1, lb, ub), SumSq: m.N * quadMoment(t, m, yIsX, 2, lb, ub)}
}

// gridRelErr is the equivalence bound the grid kernel must hold against
// the adaptive rule (the build-time gate is tighter, at gridErrBound).
const gridRelErrBound = 1e-4

// TestGridMatchesQuadrature compares every aggregate function over
// randomized spans between the grid kernel and the quadrature oracle on
// the same trained model.
func TestGridMatchesQuadrature(t *testing.T) {
	for _, tc := range []struct {
		name string
		tb   *table.Table
	}{
		{"linear", linTable(8000, 3)},
		{"bimodal", mixTable(8000, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := Train(tc.tb, []string{"x"}, "y", &TrainConfig{SampleSize: 1000, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			m := ms.Uni
			if !m.HasGrid() {
				t.Fatal("training did not build a validated grid")
			}
			lo, hi := m.D.Support()
			rng := rand.New(rand.NewSource(99))
			afs := []exact.AggFunc{exact.Count, exact.Sum, exact.Avg,
				exact.Variance, exact.StdDev, exact.Percentile}
			trials := 12
			if testing.Short() {
				trials = 3 // the tight-quadrature oracle dominates runtime
			}
			for trial := 0; trial < trials; trial++ {
				width := (hi - lo) * (0.02 + 0.5*rng.Float64())
				lb := lo + rng.Float64()*(hi-lo-width)
				ub := lb + width
				if m.D.Mass(lb, ub) < 0.01 {
					continue // tiny-mass spans answer ErrNoSupport anyway
				}
				p := 0.1 + 0.8*rng.Float64()
				for _, af := range afs {
					for _, yIsX := range []bool{false, true} {
						if af == exact.Percentile && yIsX {
							continue
						}
						got, gerr := m.Aggregate(af, lb, ub, yIsX, p)
						want, werr := quadAggregate(t, m, af, lb, ub, yIsX, p)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("%v yIsX=%v [%g,%g]: grid err %v vs quad err %v",
								af, yIsX, lb, ub, gerr, werr)
						}
						if gerr != nil {
							continue
						}
						scale := math.Max(math.Abs(want), math.Abs(hi-lo))
						if af == exact.Count {
							scale = math.Max(math.Abs(want), 1)
						}
						if rel := math.Abs(got - want); rel/scale > gridRelErrBound {
							t.Errorf("%v yIsX=%v [%g,%g]: grid %g vs quad %g (rel %g)",
								af, yIsX, lb, ub, got, want, rel/scale)
						}
					}
				}
			}
		})
	}
}

// TestGridPartialMatchesQuadrature compares the shard-mergeable moment
// triples against the quadrature oracle.
func TestGridPartialMatchesQuadrature(t *testing.T) {
	tb := mixTable(8000, 11)
	ms, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := ms.Uni
	if !m.HasGrid() {
		t.Fatal("training did not build a validated grid")
	}
	rng := rand.New(rand.NewSource(12))
	lo, hi := m.D.Support()
	for trial := 0; trial < 10; trial++ {
		width := (hi - lo) * (0.05 + 0.4*rng.Float64())
		lb := lo + rng.Float64()*(hi-lo-width)
		ub := lb + width
		for _, yIsX := range []bool{false, true} {
			gp, _ := m.Partial(lb, ub, yIsX, true, true)
			qp := quadPartial(t, m, lb, ub, yIsX)
			if gp.Support != qp.Support {
				t.Fatalf("support mismatch: grid %v quad %v", gp.Support, qp.Support)
			}
			if !gp.Support {
				continue
			}
			for _, pair := range [][2]float64{{gp.Count, qp.Count}, {gp.Sum, qp.Sum}, {gp.SumSq, qp.SumSq}} {
				scale := math.Max(math.Abs(pair[1]), m.N)
				if math.Abs(pair[0]-pair[1])/scale > gridRelErrBound {
					t.Errorf("yIsX=%v [%g,%g]: partial grid %g vs quad %g", yIsX, lb, ub, pair[0], pair[1])
				}
			}
		}
	}
}

// TestGridDefaultBuild: training always builds a validated grid of at least
// the default base budget, centred on its knot span, and tags the set's
// kernel grid.
func TestGridDefaultBuild(t *testing.T) {
	on, err := Train(linTable(5000, 8), []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := on.Uni.Grid
	if !on.Uni.HasGrid() {
		t.Fatal("default training did not build a grid")
	}
	if on.EvalKernel() != "grid" {
		t.Fatalf("EvalKernel = %q, want grid", on.EvalKernel())
	}
	if g.MaxRelErr > gridErrBound {
		t.Fatalf("validated grid reports MaxRelErr %g above the bound %g", g.MaxRelErr, gridErrBound)
	}
	if kn := len(g.Knots); kn < DefaultGridKnots/2 {
		t.Fatalf("default grid has %d knots, want at least %d", kn, DefaultGridKnots/2)
	}
	if lo, hi := g.Span(); g.C != 0.5*(lo+hi) {
		t.Fatalf("grid centre %v, want the middle of [%v, %v]", g.C, lo, hi)
	}
}

// TestGridCounters verifies the kernel counters move on the expected paths:
// univariate integrals count grid hits, the multivariate tensor quadrature
// counts fallbacks.
func TestGridCounters(t *testing.T) {
	on, err := Train(linTable(5000, 10), []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ResetEvalCounters()
	defer ResetEvalCounters()
	if _, err := on.Uni.Aggregate(exact.Sum, 20, 60, false, 0); err != nil {
		t.Fatal(err)
	}
	if c := ReadEvalCounters(); c.GridHits != 1 || c.GridFallbacks != 0 {
		t.Fatalf("grid-path counters = %+v, want one hit and no fallbacks", c)
	}
	ResetEvalCounters()
	multi := trainMultiSet(t, multiTable(3000, 2))
	if _, err := multi.EvaluateMulti(exact.Avg, []float64{2, 2}, []float64{6, 6}); err != nil {
		t.Fatal(err)
	}
	if c := ReadEvalCounters(); c.GridFallbacks != 1 || c.GridHits != 0 {
		t.Fatalf("multivariate counters = %+v, want one fallback and no hits", c)
	}
}

// epochTable is a day of epoch-microsecond timestamps (x ≈ 1.7e15) with a
// linear trend in y: the input whose PLR intercepts cancelled to a few
// digits before the grid centred its tables.
func epochTable() *table.Table {
	const (
		n      = 50_000
		origin = 1.7e15  // epoch microseconds, late 2023
		day    = 8.64e10 // one day of microseconds
	)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = origin + rng.Float64()*day
		ys[i] = 100 + 50*(xs[i]-origin)/day + rng.NormFloat64()*5
	}
	tb := table.New("events")
	tb.AddFloatColumn("ts", xs)
	tb.AddFloatColumn("v", ys)
	return tb
}

// TestEpochPLRGrids: a PLR ensemble over an epoch-microsecond column grids,
// and answers COUNT, SUM, AVG(y) and AVG(x) within 6 % of the exact scan.
func TestEpochPLRGrids(t *testing.T) {
	const origin, day = 1.7e15, 8.64e10
	tb := epochTable()
	ms, err := Train(tb, []string{"ts"}, "v", &TrainConfig{SampleSize: 5000, Seed: 1, EnsemblePLR: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Uni.HasGrid() {
		t.Fatal("no grid")
	}
	t.Logf("%d knots, MaxRelErr %.3g", len(ms.Uni.Grid.Knots), ms.Uni.Grid.MaxRelErr)
	spans := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		w := day * (0.05 + 0.45*spans.Float64())
		lb := origin + (day-w)*spans.Float64()
		for _, q := range []struct {
			af   exact.AggFunc
			yIsX bool
		}{{exact.Count, false}, {exact.Sum, false}, {exact.Avg, false}, {exact.Avg, true}} {
			got, err := ms.EvaluateUni(q.af, lb, lb+w, q.yIsX, nil)
			if err != nil {
				t.Fatalf("%v over span %d: %v", q.af, i, err)
			}
			y := "v"
			if q.yIsX {
				y = "ts"
			}
			want, err := exact.Query(tb, exact.Request{AF: q.af, Y: y,
				Predicates: []exact.Range{{Column: "ts", Lb: lb, Ub: lb + w}}})
			if err != nil {
				t.Fatal(err)
			}
			if re := relErr(got.Value, want.Value); re > 0.06 {
				t.Errorf("%v(%s) over span %d = %v, exact %v: relative error %.3f above 6%%", q.af, y, i, got.Value, want.Value, re)
			}
		}
	}
}
