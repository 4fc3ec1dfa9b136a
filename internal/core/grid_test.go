package core

import (
	"math"
	"math/rand"
	"testing"

	"dbest/internal/exact"
	"dbest/internal/quadrature"
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

// stripGrid returns a copy of m forced onto the quadrature path.
func stripGrid(m *UniModel) *UniModel {
	c := *m
	c.Grid = nil
	return &c
}

// withTightQuad raises the adaptive rule's budget for the duration of a
// test, so the quadrature baseline converges on the discontinuous D·R
// integrands and the comparison measures the grid's error, not the
// runtime fallback's subdivision cap.
func withTightQuad(t *testing.T) {
	t.Helper()
	old := quadOpts
	quadOpts = &quadrature.Options{AbsTol: 1e-12, RelTol: 1e-9, MaxIter: 4096, InitialPanels: 32}
	t.Cleanup(func() { quadOpts = old })
}

// gridRelErr is the equivalence bound the grid kernel must hold against
// the adaptive rule (the build-time gate is tighter, at gridErrBound).
const gridRelErrBound = 1e-4

// TestGridMatchesQuadrature compares every aggregate function over
// randomized spans between the grid kernel and the quadrature kernel on
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
			withTightQuad(t)
			ms, err := Train(tc.tb, []string{"x"}, "y", &TrainConfig{SampleSize: 1000, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			m := ms.Uni
			if !m.HasGrid() {
				t.Fatal("training did not build a validated grid")
			}
			q := stripGrid(m)
			lo, hi := m.D.Support()
			rng := rand.New(rand.NewSource(99))
			afs := []exact.AggFunc{exact.Count, exact.Sum, exact.Avg,
				exact.Variance, exact.StdDev, exact.Percentile}
			trials := 12
			if testing.Short() {
				trials = 3 // the tight-quadrature baseline dominates runtime
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
						want, werr := q.Aggregate(af, lb, ub, yIsX, p)
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
// triples between kernels.
func TestGridPartialMatchesQuadrature(t *testing.T) {
	withTightQuad(t)
	tb := mixTable(8000, 11)
	ms, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := ms.Uni
	if !m.HasGrid() {
		t.Fatal("training did not build a validated grid")
	}
	q := stripGrid(m)
	rng := rand.New(rand.NewSource(12))
	lo, hi := m.D.Support()
	for trial := 0; trial < 10; trial++ {
		width := (hi - lo) * (0.05 + 0.4*rng.Float64())
		lb := lo + rng.Float64()*(hi-lo-width)
		ub := lb + width
		for _, yIsX := range []bool{false, true} {
			gp, _, gerr := m.Partial(lb, ub, yIsX, true, true)
			qp, _, qerr := q.Partial(lb, ub, yIsX, true, true)
			if gerr != nil || qerr != nil {
				t.Fatalf("partial errors: grid %v quad %v", gerr, qerr)
			}
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

// TestGridDisabled verifies the GridKnots < 0 escape hatch (the A/B
// baseline) and the default-on behavior.
func TestGridDisabled(t *testing.T) {
	tb := linTable(5000, 8)
	off, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1, GridKnots: -1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Uni.HasGrid() {
		t.Fatal("GridKnots -1 still built a grid")
	}
	if off.EvalKernel() != "quad" {
		t.Fatalf("EvalKernel = %q, want quad", off.EvalKernel())
	}
	on, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !on.Uni.HasGrid() {
		t.Fatal("default training did not build a grid")
	}
	if on.EvalKernel() != "grid" {
		t.Fatalf("EvalKernel = %q, want grid", on.EvalKernel())
	}
	if on.Uni.Grid.MaxRelErr > gridErrBound {
		t.Fatalf("validated grid reports MaxRelErr %g above the bound %g",
			on.Uni.Grid.MaxRelErr, gridErrBound)
	}
	if kn := len(on.Uni.Grid.Knots); kn < DefaultGridKnots/2 {
		t.Fatalf("default grid has %d knots, want at least %d", kn, DefaultGridKnots/2)
	}
}

// TestGridCustomKnots verifies the base knot budget flows through: the
// knot vector is budget-many base knots plus the ensemble's breakpoints,
// so a larger budget yields a strictly denser grid over the same model.
func TestGridCustomKnots(t *testing.T) {
	tb := linTable(5000, 9)
	small, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1, GridKnots: 64})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1, GridKnots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	gs, gl := small.Uni.Grid, large.Uni.Grid
	if !gs.Valid() || !gl.Valid() {
		t.Fatal("explicit knot budgets did not build grids")
	}
	if len(gs.Knots) >= len(gl.Knots) {
		t.Fatalf("budget 64 produced %d knots, budget 1024 produced %d — want the latter denser",
			len(gs.Knots), len(gl.Knots))
	}
}

// TestGridCounters verifies the kernel counters move on the expected paths.
func TestGridCounters(t *testing.T) {
	tb := linTable(5000, 10)
	on, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ResetEvalCounters()
	if _, err := on.Uni.Aggregate(exact.Sum, 20, 60, false, 0); err != nil {
		t.Fatal(err)
	}
	c := ReadEvalCounters()
	if c.GridHits == 0 || c.GridFallbacks != 0 {
		t.Fatalf("grid-path counters = %+v, want hits > 0 and no fallbacks", c)
	}
	ResetEvalCounters()
	if _, err := stripGrid(on.Uni).Aggregate(exact.Sum, 20, 60, false, 0); err != nil {
		t.Fatal(err)
	}
	c = ReadEvalCounters()
	if c.GridFallbacks == 0 || c.GridHits != 0 {
		t.Fatalf("quad-path counters = %+v, want fallbacks > 0 and no hits", c)
	}
	ResetEvalCounters()
}

// TestGridRejectedServesOnQuadrature covers the fallback ordinary input
// reaches (GRID OFF is the other way in, and an escape hatch): a PLR ensemble
// over an epoch-microsecond column fails the grid's build-time validation, so
// the model ships without a grid and every integral runs on adaptive
// quadrature — which must still answer within the accuracy the gridded
// sibling (EnsemblePLR: false over the same column) gives. See ROADMAP 4(d):
// this is why quadrature stays a serving kernel.
func TestGridRejectedServesOnQuadrature(t *testing.T) {
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
	ms, err := Train(tb, []string{"ts"}, "v", &TrainConfig{SampleSize: 5000, Seed: 1, EnsemblePLR: true})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Uni.HasGrid() {
		t.Fatal("the grid validated: this input no longer reaches the fallback, find one that does or retire the kernel (ROADMAP 4d)")
	}
	if k := ms.EvalKernel(); k != "quad" {
		t.Fatalf("EvalKernel = %q, want quad", k)
	}

	ResetEvalCounters()
	defer ResetEvalCounters()
	spans := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		w := day * (0.05 + 0.45*spans.Float64())
		lb := origin + (day-w)*spans.Float64()
		for _, af := range []exact.AggFunc{exact.Count, exact.Sum, exact.Avg} {
			got, err := ms.EvaluateUni(af, lb, lb+w, false, nil)
			if err != nil {
				t.Fatalf("%v over span %d: %v", af, i, err)
			}
			want, err := exact.Query(tb, exact.Request{AF: af, Y: "v",
				Predicates: []exact.Range{{Column: "ts", Lb: lb, Ub: lb + w}}})
			if err != nil {
				t.Fatal(err)
			}
			if re := relErr(got.Value, want.Value); re > 0.06 {
				t.Errorf("%v over span %d = %v, exact %v: relative error %.3f above 6%%", af, i, got.Value, want.Value, re)
			}
		}
	}
	if c := ReadEvalCounters(); c.GridFallbacks == 0 || c.GridHits != 0 {
		t.Fatalf("counters = %+v, want fallbacks > 0 and no grid hits", c)
	}
}
