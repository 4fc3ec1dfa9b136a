package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dbest/internal/exact"
	"dbest/internal/table"
)

// linTable builds a table with x ~ U(0, 100), y = 2x + 10 + noise — smooth
// enough that model error should be small, so the Eq. 1–9 plumbing is what
// is under test.
func linTable(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = 2*xs[i] + 10 + rng.NormFloat64()*2
	}
	tb := table.New("lin")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func trainLin(t *testing.T, tb *table.Table, sampleSize int) *ModelSet {
	t.Helper()
	ms, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: sampleSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func exactVal(t *testing.T, tb *table.Table, af exact.AggFunc, y string, lb, ub, p float64) float64 {
	t.Helper()
	r, err := exact.Query(tb, exact.Request{AF: af, Y: y,
		Predicates: []exact.Range{{Column: "x", Lb: lb, Ub: ub}}, P: p})
	if err != nil {
		t.Fatal(err)
	}
	return r.Value
}

func TestTrainErrors(t *testing.T) {
	tb := linTable(100, 1)
	if _, err := Train(tb, nil, "y", nil); err == nil {
		t.Fatal("want error for no predicate columns")
	}
	if _, err := Train(tb, []string{"nope"}, "y", nil); err == nil {
		t.Fatal("want error for missing x")
	}
	if _, err := Train(tb, []string{"x"}, "nope", nil); err == nil {
		t.Fatal("want error for missing y")
	}
	if _, err := Train(table.New("empty"), []string{"x"}, "y", nil); err == nil {
		t.Fatal("want error for empty table")
	}
	if _, err := Train(tb, []string{"x", "x"}, "y", &TrainConfig{GroupBy: "x"}); err == nil {
		t.Fatal("want error for multivariate GROUP BY")
	}
}

func TestCountMatchesExact(t *testing.T) {
	tb := linTable(50000, 2)
	ms := trainLin(t, tb, 10000)
	for _, iv := range [][2]float64{{10, 30}, {0, 100}, {45, 55}} {
		got, err := ms.EvaluateUni(exact.Count, iv[0], iv[1], false, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := exactVal(t, tb, exact.Count, "y", iv[0], iv[1], 0)
		if re := relErr(got.Value, want); re > 0.05 {
			t.Errorf("COUNT[%v]: got %v, want %v (rel err %v)", iv, got.Value, want, re)
		}
	}
}

func TestSumAvgMatchExact(t *testing.T) {
	tb := linTable(50000, 3)
	ms := trainLin(t, tb, 10000)
	for _, iv := range [][2]float64{{20, 40}, {5, 95}} {
		gotAvg, err := ms.EvaluateUni(exact.Avg, iv[0], iv[1], false, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantAvg := exactVal(t, tb, exact.Avg, "y", iv[0], iv[1], 0)
		if re := relErr(gotAvg.Value, wantAvg); re > 0.03 {
			t.Errorf("AVG[%v]: got %v, want %v (rel err %v)", iv, gotAvg.Value, wantAvg, re)
		}
		gotSum, err := ms.EvaluateUni(exact.Sum, iv[0], iv[1], false, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSum := exactVal(t, tb, exact.Sum, "y", iv[0], iv[1], 0)
		if re := relErr(gotSum.Value, wantSum); re > 0.06 {
			t.Errorf("SUM[%v]: got %v, want %v (rel err %v)", iv, gotSum.Value, wantSum, re)
		}
	}
}

func TestSumEqualsCountTimesAvg(t *testing.T) {
	// Eq. 7 is literally COUNT × AVG, and all three read one mass kernel, so
	// the identity holds to rounding, not merely to grid-vs-closed-form error.
	tb := linTable(20000, 4)
	ms := trainLin(t, tb, 5000)
	lb, ub := 25.0, 60.0
	cnt, _ := ms.EvaluateUni(exact.Count, lb, ub, false, nil)
	avg, _ := ms.EvaluateUni(exact.Avg, lb, ub, false, nil)
	sum, _ := ms.EvaluateUni(exact.Sum, lb, ub, false, nil)
	if re := relErr(sum.Value, cnt.Value*avg.Value); re > 1e-9 {
		t.Fatalf("SUM %v != COUNT×AVG %v (rel err %v)", sum.Value, cnt.Value*avg.Value, re)
	}
}

func TestVarianceStdDevY(t *testing.T) {
	tb := linTable(50000, 5)
	ms := trainLin(t, tb, 10000)
	lb, ub := 10.0, 90.0
	got, err := ms.EvaluateUni(exact.Variance, lb, ub, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exactVal(t, tb, exact.Variance, "y", lb, ub, 0)
	// Regression-based variance under-reports the residual noise (E[R²]
	// uses the conditional mean), so tolerance is looser; with y ≈ 2x the
	// structural variance dominates.
	if re := relErr(got.Value, want); re > 0.1 {
		t.Errorf("VARIANCE: got %v, want %v (rel err %v)", got.Value, want, re)
	}
	std, err := ms.EvaluateUni(exact.StdDev, lb, ub, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(std.Value, math.Sqrt(got.Value)); re > 1e-9 {
		t.Errorf("STDDEV %v != sqrt(VARIANCE %v)", std.Value, got.Value)
	}
}

func TestDensityBasedVarianceX(t *testing.T) {
	tb := linTable(50000, 6)
	ms := trainLin(t, tb, 10000)
	lb, ub := 0.0, 100.0
	got, err := ms.EvaluateUni(exact.Variance, lb, ub, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exactVal(t, tb, exact.Variance, "x", lb, ub, 0)
	// Restricting the KDE to [lb, ub] truncates kernel tails at the domain
	// boundary, pulling mass inward; ~6% variance shrinkage is inherent.
	if re := relErr(got.Value, want); re > 0.10 {
		t.Errorf("VARIANCE_x: got %v, want %v (rel err %v)", got.Value, want, re)
	}
	std, err := ms.EvaluateUni(exact.StdDev, lb, ub, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(std.Value, math.Sqrt(got.Value)); re > 1e-9 {
		t.Errorf("STDDEV_x inconsistent with VARIANCE_x")
	}
	avgX, err := ms.EvaluateUni(exact.Avg, 20, 80, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAvgX := exactVal(t, tb, exact.Avg, "x", 20, 80, 0)
	if re := relErr(avgX.Value, wantAvgX); re > 0.03 {
		t.Errorf("AVG_x: got %v, want %v", avgX.Value, wantAvgX)
	}
}

func TestPercentile(t *testing.T) {
	tb := linTable(50000, 7)
	ms := trainLin(t, tb, 10000)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		got, err := ms.EvaluateUni(exact.Percentile, math.Inf(-1), math.Inf(1), true, &EvalOptions{P: p})
		if err != nil {
			t.Fatal(err)
		}
		want := exactVal(t, tb, exact.Percentile, "x", -1e18, 1e18, p)
		if math.Abs(got.Value-want) > 2 { // x spans [0,100]; 2% of domain
			t.Errorf("PERCENTILE(%v): got %v, want %v", p, got.Value, want)
		}
	}
	// Conditional percentile within a range.
	got, err := ms.EvaluateUni(exact.Percentile, 20, 60, true, &EvalOptions{P: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value < 35 || got.Value > 45 {
		t.Errorf("conditional median = %v, want ≈ 40", got.Value)
	}
	if _, err := ms.Uni.Aggregate(exact.Percentile, 0, 1, true, 1.5); err == nil {
		t.Fatal("want error for p outside [0,1]")
	}
}

func TestNoSupportRange(t *testing.T) {
	tb := linTable(10000, 8)
	ms := trainLin(t, tb, 2000)
	if _, err := ms.EvaluateUni(exact.Avg, 500, 600, false, nil); err == nil {
		t.Fatal("AVG over empty region should report ErrNoSupport")
	}
	sum, err := ms.EvaluateUni(exact.Sum, 500, 600, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Value != 0 {
		t.Fatalf("SUM over empty region = %v, want 0", sum.Value)
	}
	cnt, err := ms.EvaluateUni(exact.Count, 500, 600, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Value > float64(tb.NumRows())*1e-6 {
		t.Fatalf("COUNT over empty region = %v", cnt.Value)
	}
}

func TestScaleFactor(t *testing.T) {
	// A model trained with Scale=1000 must scale COUNT and SUM by 1000 but
	// leave AVG unchanged — this is how billion-row logical tables are
	// exercised at laptop scale.
	tb := linTable(20000, 9)
	base, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 5000, Seed: 1, Scale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	lb, ub := 10.0, 50.0
	c1, _ := base.EvaluateUni(exact.Count, lb, ub, false, nil)
	c2, _ := scaled.EvaluateUni(exact.Count, lb, ub, false, nil)
	if re := relErr(c2.Value, c1.Value*1000); re > 1e-9 {
		t.Fatalf("scaled COUNT = %v, want %v", c2.Value, c1.Value*1000)
	}
	a1, _ := base.EvaluateUni(exact.Avg, lb, ub, false, nil)
	a2, _ := scaled.EvaluateUni(exact.Avg, lb, ub, false, nil)
	if re := relErr(a2.Value, a1.Value); re > 1e-9 {
		t.Fatalf("scaled AVG = %v, want %v", a2.Value, a1.Value)
	}
}

func TestModelSizeCompact(t *testing.T) {
	tb := linTable(50000, 10)
	ms := trainLin(t, tb, 10000)
	size := ms.SizeBytes()
	if size == 0 {
		t.Fatal("SizeBytes failed to encode")
	}
	// The defining property of DBEst: the model is much smaller than the
	// sample it was trained from (10k rows × 16 bytes = 160 KB just for the
	// two float columns).
	if size > 600_000 {
		t.Fatalf("model size = %d bytes; expected compact (< 600 KB)", size)
	}
	if ms.NumModels() != 1 {
		t.Fatalf("NumModels = %d", ms.NumModels())
	}
}

func TestKeyFormat(t *testing.T) {
	ms := &ModelSet{Table: "t", XCols: []string{"a", "b"}, YCol: "y", GroupBy: "g"}
	if ms.Key() != "t|a,b|y|g" {
		t.Fatalf("Key = %q", ms.Key())
	}
	if Key("t", []string{"x"}, "y", "") != "t|x|y|" {
		t.Fatalf("Key = %q", Key("t", []string{"x"}, "y", ""))
	}
}

// Property: COUNT is monotone in the range and bounded by N.
func TestCountMonotoneProperty(t *testing.T) {
	tb := linTable(20000, 11)
	ms := trainLin(t, tb, 4000)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lb := rng.Float64() * 50
		w1 := rng.Float64() * 25
		w2 := w1 + rng.Float64()*25
		c1, err1 := ms.EvaluateUni(exact.Count, lb, lb+w1, false, nil)
		c2, err2 := ms.EvaluateUni(exact.Count, lb, lb+w2, false, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1.Value <= c2.Value+1e-6 && c2.Value <= ms.N+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: AVG of y=2x+10 over any in-domain window is within a few
// percent of 2·midpoint+10 (the regression must track the trend).
func TestAvgTracksTrendProperty(t *testing.T) {
	tb := linTable(30000, 12)
	ms := trainLin(t, tb, 8000)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lb := 5 + rng.Float64()*70
		ub := lb + 5 + rng.Float64()*20
		if ub > 95 {
			ub = 95
		}
		got, err := ms.EvaluateUni(exact.Avg, lb, ub, false, nil)
		if err != nil {
			return false
		}
		// True E[y | x in window] ≈ 2·E[x|window]+10; window x is ~uniform.
		want := 2*(lb+ub)/2 + 10
		return relErr(got.Value, want) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
