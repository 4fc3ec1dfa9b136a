package core

import (
	"math/rand"
	"testing"

	"dbest/internal/exact"
	"dbest/internal/table"
)

// multiTable: y = x1 + 3·x2 + noise over independent uniforms.
func multiTable(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	ys := make([]float64, n)
	for i := range x1 {
		x1[i] = rng.Float64() * 10
		x2[i] = rng.Float64() * 10
		ys[i] = x1[i] + 3*x2[i] + rng.NormFloat64()*0.5
	}
	tb := table.New("mt")
	tb.AddFloatColumn("x1", x1)
	tb.AddFloatColumn("x2", x2)
	tb.AddFloatColumn("y", ys)
	return tb
}

func trainMultiSet(t *testing.T, tb *table.Table) *ModelSet {
	t.Helper()
	ms, err := Train(tb, []string{"x1", "x2"}, "y", &TrainConfig{SampleSize: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func exactMulti(t *testing.T, tb *table.Table, af exact.AggFunc, lb, ub []float64) float64 {
	t.Helper()
	r, err := exact.Query(tb, exact.Request{AF: af, Y: "y", Predicates: []exact.Range{
		{Column: "x1", Lb: lb[0], Ub: ub[0]},
		{Column: "x2", Lb: lb[1], Ub: ub[1]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return r.Value
}

func TestMultiCount(t *testing.T) {
	tb := multiTable(40000, 1)
	ms := trainMultiSet(t, tb)
	lb := []float64{2, 3}
	ub := []float64{7, 8}
	got, err := ms.EvaluateMulti(exact.Count, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	want := exactMulti(t, tb, exact.Count, lb, ub)
	if re := relErr(got.Value, want); re > 0.08 {
		t.Fatalf("multivariate COUNT: got %v, want %v (rel err %v)", got.Value, want, re)
	}
}

func TestMultiAvgSum(t *testing.T) {
	tb := multiTable(40000, 2)
	ms := trainMultiSet(t, tb)
	lb := []float64{1, 2}
	ub := []float64{6, 9}
	gotAvg, err := ms.EvaluateMulti(exact.Avg, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	wantAvg := exactMulti(t, tb, exact.Avg, lb, ub)
	if re := relErr(gotAvg.Value, wantAvg); re > 0.08 {
		t.Fatalf("multivariate AVG: got %v, want %v (rel err %v)", gotAvg.Value, wantAvg, re)
	}
	gotSum, err := ms.EvaluateMulti(exact.Sum, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := exactMulti(t, tb, exact.Sum, lb, ub)
	if re := relErr(gotSum.Value, wantSum); re > 0.12 {
		t.Fatalf("multivariate SUM: got %v, want %v (rel err %v)", gotSum.Value, wantSum, re)
	}
}

func TestMultiUnsupported(t *testing.T) {
	tb := multiTable(5000, 3)
	ms := trainMultiSet(t, tb)
	lb := []float64{1, 1}
	ub := []float64{5, 5}
	if _, err := ms.EvaluateMulti(exact.Variance, lb, ub); err == nil {
		t.Fatal("multivariate VARIANCE should be unsupported")
	}
	if _, err := ms.EvaluateMulti(exact.Count, []float64{1}, []float64{5}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if _, err := ms.EvaluateMulti(exact.Avg, []float64{1}, []float64{5}); err == nil {
		t.Fatal("dimension mismatch should error for AVG")
	}
	// Univariate eval on a multivariate-only set must fail cleanly.
	if _, err := ms.EvaluateUni(exact.Count, 0, 1, false, nil); err == nil {
		t.Fatal("univariate eval without Uni model should error")
	}
}

func TestMultiEmptyRegion(t *testing.T) {
	tb := multiTable(5000, 4)
	ms := trainMultiSet(t, tb)
	sum, err := ms.EvaluateMulti(exact.Sum, []float64{100, 100}, []float64{200, 200})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Value != 0 {
		t.Fatalf("SUM over empty box = %v", sum.Value)
	}
	if _, err := ms.EvaluateMulti(exact.Avg, []float64{100, 100}, []float64{200, 200}); err == nil {
		t.Fatal("AVG over empty box should error")
	}
}

func TestMultiModelCompact(t *testing.T) {
	tb := multiTable(30000, 5)
	ms := trainMultiSet(t, tb)
	if ms.Multi == nil {
		t.Fatal("no multivariate model trained")
	}
	if ms.Multi.Dim() != 2 {
		t.Fatalf("Dim = %d", ms.Multi.Dim())
	}
	if size := ms.Stats.ModelBytes; size == 0 || size > 2_000_000 {
		t.Fatalf("multivariate model size = %d", size)
	}
}
