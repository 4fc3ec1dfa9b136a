package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dbest/internal/exact"
	"dbest/internal/shard"
)

// allAggs is every aggregate the evaluation kernel answers.
var allAggs = []exact.AggFunc{exact.Count, exact.Sum, exact.Avg,
	exact.Variance, exact.StdDev, exact.Percentile}

// poisonDensity returns a copy of m without its density estimator: the
// invariant "serving never reads D" then shows up as a nil dereference
// instead of hiding behind a correct closed form.
func poisonDensity(m *UniModel) *UniModel {
	c := *m
	c.D = nil
	return &c
}

// poisonSet returns a copy of ms with every trained pair's density poisoned.
func poisonSet(ms *ModelSet) *ModelSet {
	c := *ms
	if ms.Uni != nil {
		c.Uni = poisonDensity(ms.Uni)
	}
	if ms.Groups != nil {
		c.Groups = make(map[int64]*UniModel, len(ms.Groups))
		for g, m := range ms.Groups {
			c.Groups[g] = poisonDensity(m)
		}
	}
	if ms.Nominal != nil {
		c.Nominal = make(map[string]*UniModel, len(ms.Nominal))
		for v, m := range ms.Nominal {
			c.Nominal[v] = poisonDensity(m)
		}
	}
	return &c
}

// edgeSpans returns ranges inside, straddling and outside m's support,
// including the near-empty slivers where the empty-selection decision is
// made, plus unbounded ones.
func edgeSpans(m *UniModel) [][2]float64 {
	lo, hi := m.D.Support()
	w := hi - lo
	inf := math.Inf(1)
	return [][2]float64{
		{lo + 0.2*w, lo + 0.6*w}, {lo + 0.45*w, lo + 0.46*w},
		{lo - w, lo + 0.1*w}, {lo - w, lo + 1e-6*w}, {lo - w, lo + 1e-14*w}, {lo - w, lo},
		{hi - 0.1*w, hi + w}, {hi - 1e-6*w, hi + w}, {hi - 1e-14*w, hi + w}, {hi, hi + w},
		{lo - 2*w, lo - w}, {hi + w, hi + 2*w}, {lo + 0.5*w, lo + 0.5*w}, {lo + 0.6*w, lo + 0.4*w},
		{-inf, inf}, {-inf, lo + 0.3*w}, {lo + 0.7*w, inf},
	}
}

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && errors.Is(a, ErrNoSupport) == errors.Is(b, ErrNoSupport)
}

// sameAnswer requires a poisoned evaluation to reproduce the clean one bit
// for bit, and to be finite.
func sameAnswer(t *testing.T, what string, got *Answer, gerr error, want *Answer, werr error) {
	t.Helper()
	if !sameErr(gerr, werr) {
		t.Fatalf("%s: poisoned err %v, clean err %v", what, gerr, werr)
	}
	if werr != nil {
		return
	}
	check := func(field string, g, w float64) {
		if g != w || math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("%s: poisoned %s = %v, clean %v", what, field, g, w)
		}
	}
	check("value", got.Value, want.Value)
	check("PredRelErr", got.PredRelErr, want.PredRelErr)
	check("CI.lo", got.CI[0], want.CI[0])
	check("CI.hi", got.CI[1], want.CI[1])
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: poisoned %d groups, clean %d", what, len(got.Groups), len(want.Groups))
	}
	for i, g := range got.Groups {
		if g != want.Groups[i] || math.IsNaN(g.Value) {
			t.Fatalf("%s: poisoned group %+v, clean %+v", what, g, want.Groups[i])
		}
	}
}

// TestPoisonedDensityNeverConsulted is the invariant "serving never reads
// D" as a test: with the density estimator gone, each serving entry of
// internal/core still answers exactly what the clean model answers.
func TestPoisonedDensityNeverConsulted(t *testing.T) {
	plain, grouped, nominal, sharded := kernelSets(t)
	if k := plain.EvalKernel() + grouped.EvalKernel() + nominal.EvalKernel(); k != "gridgridgrid" {
		t.Fatalf("kernels = %q, want every model gridded", k)
	}
	ResetEvalCounters()
	for _, af := range allAggs {
		for _, yIsX := range []bool{false, true} {
			o := &EvalOptions{Workers: 1, P: 0.3}
			for _, sp := range edgeSpans(plain.Uni) {
				want, werr := plain.EvaluateUni(af, sp[0], sp[1], yIsX, o)
				got, gerr := poisonSet(plain).EvaluateUni(af, sp[0], sp[1], yIsX, o)
				sameAnswer(t, "plain "+af.String(), got, gerr, want, werr)
			}
			for _, sp := range [][2]float64{{10, 60}, {-50, 5}, {99.9, 300}, {200, 300}} {
				want, werr := grouped.EvaluateUni(af, sp[0], sp[1], yIsX, o)
				got, gerr := poisonSet(grouped).EvaluateUni(af, sp[0], sp[1], yIsX, o)
				sameAnswer(t, "grouped "+af.String(), got, gerr, want, werr)
				want, werr = nominal.EvaluateNominal(af, "b", sp[0], sp[1], yIsX, o)
				got, gerr = poisonSet(nominal).EvaluateNominal(af, "b", sp[0], sp[1], yIsX, o)
				sameAnswer(t, "nominal "+af.String(), got, gerr, want, werr)
			}
		}
	}
	m, pm := sharded[1].Uni, poisonDensity(sharded[1].Uni)
	for _, sp := range edgeSpans(m) {
		for _, yIsX := range []bool{false, true} {
			want, wf := m.Partial(sp[0], sp[1], yIsX, true, true)
			got, gf := pm.Partial(sp[0], sp[1], yIsX, true, true)
			if got != want || gf != wf || math.IsNaN(gf) {
				t.Fatalf("Partial%v: poisoned %+v f=%v, clean %+v f=%v", sp, got, gf, want, wf)
			}
		}
		for _, af := range allAggs {
			if got, want := pm.PredictRelErr(af, sp[0], sp[1]), m.PredictRelErr(af, sp[0], sp[1]); got != want || !(got > 0) {
				t.Fatalf("PredictRelErr(%v, %v): poisoned %v, clean %v", af, sp, got, want)
			}
		}
	}
	if c := ReadEvalCounters(); c.GridFallbacks != 0 {
		t.Fatalf("gridded models counted %d fallbacks", c.GridFallbacks)
	}
	ResetEvalCounters()
}

// kernelSets trains one model set of every kind the serving path evaluates.
func kernelSets(t *testing.T) (plain, grouped, nominal *ModelSet, sharded []*ModelSet) {
	t.Helper()
	plain = trainLin(t, mixTable(8000, 4), 2000)
	grouped = trainGroupedSet(t, groupTable(3))
	nominal, err := TrainNominalContext(context.Background(), nominalTable(), "x", "y", "ch", &TrainConfig{SampleSize: 500, Seed: 1, MinGroupModel: 30})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err = TrainShardedContext(context.Background(), linTable(20000, 6), "x", "y", 4, &TrainConfig{SampleSize: 4000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return plain, grouped, nominal, sharded
}

// kernelModels flattens kernelSets into its model pairs — plain, one per
// group, one per nominal value, one per shard — in a fixed order.
func kernelModels(t *testing.T) map[string][]*UniModel {
	t.Helper()
	plain, grouped, nominal, sharded := kernelSets(t)
	out := map[string][]*UniModel{
		"plain":   {plain.Uni},
		"grouped": {grouped.Groups[0], grouped.Groups[1], grouped.Groups[2]},
		"nominal": {nominal.Nominal["a"], nominal.Nominal["b"]},
	}
	for _, ms := range sharded {
		out["sharded"] = append(out["sharded"], ms.Uni)
	}
	return out
}

// randomSpan draws a span around m's support, a third of them reaching past
// an edge.
func randomSpan(rng *rand.Rand, m *UniModel) (lb, ub float64) {
	lo, hi := m.D.Support()
	w := hi - lo
	lb = lo - 0.2*w + 1.4*w*rng.Float64()
	return lb, lb + w*math.Pow(rng.Float64(), 3)
}

// TestKernelMetamorphic checks the oracle-free identities one mass kernel
// makes exact (ROADMAP 1(b)) over seeded random spans on every model kind.
func TestKernelMetamorphic(t *testing.T) {
	for kind, models := range kernelModels(t) {
		rng := rand.New(rand.NewSource(42))
		worst := 0.0
		for i := 0; i < 2000; i++ {
			m := models[i%len(models)]
			if !m.HasGrid() {
				t.Fatalf("%s: model without a grid", kind)
			}
			lb, ub := randomSpan(rng, m)
			// Grid mass against the closed form it replaced, relative to the
			// total mass (1).
			if d := math.Abs(m.Grid.Mass(lb, ub) - m.D.Mass(lb, ub)); d > worst {
				worst = d
			}
			// COUNT is additive over adjacent ranges.
			mid := lb + (ub-lb)*rng.Float64()
			if d := math.Abs(m.Count(lb, mid) + m.Count(mid, ub) - m.Count(lb, ub)); d > 1e-12*m.N {
				t.Fatalf("%s [%g,%g,%g]: COUNT not additive, off by %g", kind, lb, mid, ub, d)
			}
			// SUM = AVG·COUNT: numerator and denominator share the kernel.
			sum, _, serr := m.eval(exact.Sum, lb, ub, false, 0)
			avg, f, aerr := m.eval(exact.Avg, lb, ub, false, 0)
			if serr != nil || (aerr != nil && !errors.Is(aerr, ErrNoSupport)) {
				t.Fatalf("%s [%g,%g]: SUM err %v, AVG err %v", kind, lb, ub, serr, aerr)
			}
			if aerr == nil && math.Abs(sum-avg*m.N*f) > 1e-9*math.Abs(sum) {
				t.Fatalf("%s [%g,%g]: SUM %g != AVG·COUNT %g", kind, lb, ub, sum, avg*m.N*f)
			}
			// The stamped prediction is PredictRelErr at the same span.
			for _, af := range allAggs {
				ans, err := m.answer(af, lb, ub, i%2 == 0, 0.5)
				if err != nil {
					continue
				}
				if want := m.PredictRelErr(af, lb, ub); ans.PredRelErr != want {
					t.Fatalf("%s %v [%g,%g]: stamped PredRelErr %v != PredictRelErr %v", kind, af, lb, ub, ans.PredRelErr, want)
				}
			}
		}
		t.Logf("%s: worst |grid mass − closed-form mass| = %.3g of total mass", kind, worst)
		if worst > 1e-5 {
			t.Errorf("%s: grid mass strays %g of total mass from the closed form, want <= 1e-5", kind, worst)
		}
	}
}

// TestPartialAgreesWithEvalOnSupport is the empty-selection bugfix: Partial
// and the scalar kernel decide "has support" from the same mass, so a K=1
// merge and the plain evaluation agree everywhere, including on which spans
// are empty.
func TestPartialAgreesWithEvalOnSupport(t *testing.T) {
	for _, m := range []*UniModel{
		trainLin(t, mixTable(8000, 4), 2000).Uni,
		trainLin(t, linTable(5000, 10), 1000).Uni,
	} {
		for _, sp := range edgeSpans(m) {
			for _, yIsX := range []bool{false, true} {
				p, f := m.Partial(sp[0], sp[1], yIsX, true, true)
				_, ef, eerr := m.eval(exact.Avg, sp[0], sp[1], yIsX, 0)
				if f != ef || p.Support != (eerr == nil) {
					t.Fatalf("span %v yIsX=%v: Partial f=%v support=%v, eval f=%v err=%v", sp, yIsX, f, p.Support, ef, eerr)
				}
				if !p.Support {
					continue
				}
				ps := []shard.Partial{p}
				for af, merged := range map[exact.AggFunc]func([]shard.Partial) (float64, bool){
					exact.Avg: shard.MergeAvg, exact.Variance: shard.MergeVariance, exact.StdDev: shard.MergeStdDev,
				} {
					got, ok := merged(ps)
					want, _, err := m.eval(af, sp[0], sp[1], yIsX, 0)
					if !ok || err != nil {
						t.Fatalf("span %v %v: merge ok=%v, eval err=%v", sp, af, ok, err)
					}
					// VARIANCE cancels two O(E[y]²) terms; scale by them.
					scale := math.Max(math.Abs(want), p.SumSq/p.Count)
					if af == exact.StdDev {
						scale = math.Max(math.Abs(want), math.Sqrt(p.SumSq/p.Count))
					}
					if math.Abs(got-want) > 1e-7*scale {
						t.Fatalf("span %v %v yIsX=%v: K=1 merge %v, eval %v", sp, af, yIsX, got, want)
					}
				}
			}
		}
	}
}

// TestEvaluateUniAllocCeiling pins the cold kernel to one allocation — the
// Answer — so a later change cannot quietly put a slice or a closure back on
// the serving path.
func TestEvaluateUniAllocCeiling(t *testing.T) {
	ms := trainLin(t, linTable(5000, 10), 2000)
	opts := &EvalOptions{Workers: 1, P: 0.5}
	for _, af := range allAggs {
		for _, yIsX := range []bool{false, true} {
			lb := 0.0
			allocs := testing.AllocsPerRun(200, func() {
				lb += 0.1
				if _, err := ms.EvaluateUni(af, lb, lb+30, yIsX, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("EvaluateUni(%v, yIsX=%v) = %v allocs/op, want <= 1", af, yIsX, allocs)
			}
		}
	}
}

// BenchmarkEvaluateUniCold measures the kernel over spans it has not seen
// (nothing is memoized at this layer; fresh spans keep the knot binary
// searches honest). Run with -benchmem.
func BenchmarkEvaluateUniCold(b *testing.B) {
	tb := linTable(20000, 4)
	ms, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	spans := make([][2]float64, 4096)
	for i := range spans {
		lb := 95 * rng.Float64()
		spans[i] = [2]float64{lb, lb + 5}
	}
	opts := &EvalOptions{Workers: 1, P: 0.5}
	for _, bc := range []struct {
		name string
		af   exact.AggFunc
	}{{"count", exact.Count}, {"avg", exact.Avg}, {"percentile", exact.Percentile}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				sp := spans[i%len(spans)]
				i++
				if _, err := ms.EvaluateUni(bc.af, sp[0], sp[1], false, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
