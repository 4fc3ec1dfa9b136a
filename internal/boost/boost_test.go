package boost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func makeSine(rng *rand.Rand, n int, noise float64) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 10
		y[i] = 5*math.Sin(x[i]) + 0.3*x[i] + noise*rng.NormFloat64()
	}
	return x, y
}

func toRows(x []float64) [][]float64 {
	X := make([][]float64, len(x))
	for i := range x {
		X[i] = []float64{x[i]}
	}
	return X
}

func rmse(pred func(float64) float64, x, y []float64) float64 {
	s := 0.0
	for i := range x {
		d := pred(x[i]) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

func TestFitGradientBoostErrors(t *testing.T) {
	if _, err := FitGradientBoost(nil, nil, nil); err == nil {
		t.Fatal("want error for empty set")
	}
	if _, err := FitGradientBoost(toRows([]float64{1}), []float64{1, 2}, nil); err == nil {
		t.Fatal("want error for length mismatch")
	}
}

func TestFitXGBoostErrors(t *testing.T) {
	if _, err := FitXGBoost(nil, nil, nil); err == nil {
		t.Fatal("want error for empty set")
	}
	if _, err := FitXGBoost(toRows([]float64{1}), []float64{1, 2}, nil); err == nil {
		t.Fatal("want error for length mismatch")
	}
}

func TestGradientBoostLearnsSine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := makeSine(rng, 2000, 0.1)
	gb, err := FitGradientBoost(toRows(x), y, &Options{Trees: 80, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(gb.Predict1, x, y); e > 0.5 {
		t.Fatalf("train RMSE = %v, want < 0.5", e)
	}
	// Generalization at unseen points.
	if got, want := gb.Predict1(2.5), 5*math.Sin(2.5)+0.3*2.5; math.Abs(got-want) > 0.7 {
		t.Fatalf("Predict1(2.5) = %v, want ≈ %v", got, want)
	}
}

func TestXGBoostLearnsSine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := makeSine(rng, 2000, 0.1)
	xb, err := FitXGBoost(toRows(x), y, &Options{Trees: 80, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(xb.Predict1, x, y); e > 0.5 {
		t.Fatalf("train RMSE = %v, want < 0.5", e)
	}
}

func TestBoostersBeatConstantBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := makeSine(rng, 1000, 0.2)
	m := mean(y)
	base := rmse(func(float64) float64 { return m }, x, y)
	gb, _ := FitGradientBoost(toRows(x), y, nil)
	xb, _ := FitXGBoost(toRows(x), y, nil)
	if e := rmse(gb.Predict1, x, y); e > base/2 {
		t.Fatalf("gboost RMSE %v vs baseline %v", e, base)
	}
	if e := rmse(xb.Predict1, x, y); e > base/2 {
		t.Fatalf("xgboost RMSE %v vs baseline %v", e, base)
	}
}

func TestMoreTreesFitBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := makeSine(rng, 1000, 0.05)
	short, _ := FitGradientBoost(toRows(x), y, &Options{Trees: 5, MaxDepth: 3})
	long, _ := FitGradientBoost(toRows(x), y, &Options{Trees: 60, MaxDepth: 3})
	if rmse(long.Predict1, x, y) >= rmse(short.Predict1, x, y) {
		t.Fatal("more boosting rounds should reduce training error")
	}
}

func TestSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := makeSine(rng, 500, 0.1)
	gb, err := FitGradientBoost(toRows(x), y, &Options{Trees: 30, Subsample: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(gb.Predict1, x, y); e > 1.5 {
		t.Fatalf("stochastic GB RMSE = %v", e)
	}
}

func TestXGBoostLambdaShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := makeSine(rng, 400, 0.1)
	low, _ := FitXGBoost(toRows(x), y, &Options{Trees: 20, Lambda: 0.001})
	high, _ := FitXGBoost(toRows(x), y, &Options{Trees: 20, Lambda: 1000})
	// Heavy regularization must hurt training fit (leaves shrink to ~0).
	if rmse(high.Predict1, x, y) <= rmse(low.Predict1, x, y) {
		t.Fatal("large lambda should increase training error")
	}
}

func TestFitPiecewiseLinear(t *testing.T) {
	// Exactly linear data: PLR should be near-perfect.
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i) / 10
		y[i] = 3*x[i] - 7
	}
	pl, err := FitPiecewiseLinear(x, y, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, xi := range []float64{0.5, 20, 49} {
		if got, want := pl.Predict1(xi), 3*xi-7; math.Abs(got-want) > 1e-6 {
			t.Fatalf("PLR(%v) = %v, want %v", xi, got, want)
		}
	}
	// Out-of-domain clamps to boundary segments and Predict delegates.
	if got := pl.Predict([]float64{-5}); math.Abs(got-(3*-5-7)) > 1e-6 {
		t.Fatalf("clamped prediction = %v", got)
	}
}

func TestPiecewiseLinearDegenerate(t *testing.T) {
	pl, err := FitPiecewiseLinear([]float64{2, 2, 2}, []float64{5, 6, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Predict1(2); math.Abs(got-6) > 1e-9 {
		t.Fatalf("constant-x PLR = %v, want 6", got)
	}
	if _, err := FitPiecewiseLinear(nil, nil, 0); err == nil {
		t.Fatal("want error for empty set")
	}
	if _, err := FitPiecewiseLinear([]float64{1}, []float64{1, 2}, 0); err == nil {
		t.Fatal("want error for mismatch")
	}
}

func TestPiecewiseLinearSparseSegments(t *testing.T) {
	// 3 points, 16 segments: most segments are empty and must fall back to
	// the global mean rather than produce zeros.
	x := []float64{0, 5, 10}
	y := []float64{10, 10, 10}
	pl, err := FitPiecewiseLinear(x, y, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Predict1(3.3); math.Abs(got-10) > 1e-9 {
		t.Fatalf("sparse segment = %v, want 10", got)
	}
}

func TestNames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := makeSine(rng, 200, 0.1)
	gb, _ := FitGradientBoost(toRows(x), y, &Options{Trees: 2})
	xb, _ := FitXGBoost(toRows(x), y, &Options{Trees: 2})
	pl, _ := FitPiecewiseLinear(x, y, 4)
	ens, _ := FitEnsemble(x, y, nil)
	for _, tc := range []struct {
		r    Regressor
		want string
	}{{gb, "gboost"}, {xb, "xgboost"}, {pl, "plr"}, {ens, "ensemble"}} {
		if tc.r.Name() != tc.want {
			t.Errorf("Name = %q, want %q", tc.r.Name(), tc.want)
		}
	}
}

func TestFitEnsemble(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := makeSine(rng, 1500, 0.1)
	ens, err := FitEnsemble(x, y, &EnsembleOptions{IncludePLR: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Models) != 3 {
		t.Fatalf("models = %d, want 3", len(ens.Models))
	}
	if e := rmse(ens.Predict1, x, y); e > 0.8 {
		t.Fatalf("ensemble RMSE = %v", e)
	}
	// Range-consistent prediction must agree with the selected constituent.
	sel := ens.ForRange(2, 4)
	if got := ens.ForRange(2, 4).Predict1(3); got != sel.Predict1(3) {
		t.Fatal("PredictRange must route through the selected constituent")
	}
}

func TestFitEnsembleErrors(t *testing.T) {
	if _, err := FitEnsemble(nil, nil, nil); err == nil {
		t.Fatal("want error for empty set")
	}
	if _, err := FitEnsemble([]float64{1}, []float64{1, 2}, nil); err == nil {
		t.Fatal("want error for mismatch")
	}
}

func TestFitEnsembleConstantX(t *testing.T) {
	x := []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ens, err := FitEnsemble(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Selector != nil {
		t.Fatal("degenerate domain should not train a selector")
	}
	if got := ens.Predict1(3); math.Abs(got-5.5) > 0.5 {
		t.Fatalf("Predict1(3) = %v, want ≈ 5.5", got)
	}
}

// Property: boosters' training RMSE is bounded by the target spread.
func TestBoosterRMSEBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(300)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 100
			y[i] = rng.NormFloat64() * 5
		}
		gb, err := FitGradientBoost(toRows(x), y, &Options{Trees: 10})
		if err != nil {
			return false
		}
		var sd float64
		m := mean(y)
		for _, v := range y {
			sd += (v - m) * (v - m)
		}
		sd = math.Sqrt(sd / float64(n))
		return rmse(gb.Predict1, x, y) <= sd+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: ensemble AVG over a range tracks the empirical mean of y in that
// range for smooth monotone data.
func TestEnsembleRangeAvgProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 800
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 10
			y[i] = 2*x[i] + 1 + 0.1*rng.NormFloat64()
		}
		ens, err := FitEnsemble(x, y, nil)
		if err != nil {
			return false
		}
		lb := rng.Float64() * 5
		ub := lb + 2 + rng.Float64()*2
		var truth, pred, cnt float64
		for i := range x {
			if x[i] >= lb && x[i] <= ub {
				truth += y[i]
				pred += ens.ForRange(lb, ub).Predict1(x[i])
				cnt++
			}
		}
		if cnt < 10 {
			return true // vacuous
		}
		return math.Abs(pred/cnt-truth/cnt) < 0.25*math.Abs(truth/cnt)+0.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
