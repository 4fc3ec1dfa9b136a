package dbest_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbest"
)

// analyticsEngine trains a model on y = 3x + 20 + noise over x ∈ [0, 50].
func analyticsEngine(t *testing.T) *dbest.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(51))
	n := 60000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 50
		ys[i] = 3*xs[i] + 20 + rng.NormFloat64()
	}
	tb := dbest.NewTable("lin")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "lin", XCols: []string{"x"}, YCol: "y", SampleSize: 10000, Seed: 51,
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestImpute(t *testing.T) {
	eng := analyticsEngine(t)
	for _, x := range []float64{5, 25, 45} {
		got, err := eng.Impute("lin", "x", "y", x)
		if err != nil {
			t.Fatal(err)
		}
		want := 3*x + 20
		if math.Abs(got-want) > 1.5 {
			t.Errorf("Impute(%v) = %v, want ≈ %v", x, got, want)
		}
	}
	if _, err := eng.Impute("lin", "x", "z", 1); err == nil {
		t.Fatal("want error for unmodeled column pair")
	}
}

func TestCurve(t *testing.T) {
	eng := analyticsEngine(t)
	pts, err := eng.Curve("lin", "x", "y", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 64 {
		t.Fatalf("points = %d", len(pts))
	}
	// x grid is increasing; fitted y follows the upward trend.
	if pts[0].X >= pts[63].X {
		t.Fatal("grid not increasing")
	}
	if pts[63].YHat <= pts[0].YHat {
		t.Fatal("fitted curve should increase for y = 3x + 20")
	}
	for _, p := range pts {
		if p.Density < 0 {
			t.Fatal("negative density")
		}
	}
	// Default point count.
	pts2, err := eng.Curve("lin", "x", "y", 0)
	if err != nil || len(pts2) != 32 {
		t.Fatalf("default curve: %d, %v", len(pts2), err)
	}
}

func TestDiscoverRelationship(t *testing.T) {
	eng := analyticsEngine(t)
	rel, err := eng.DiscoverRelationship("lin", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Direction != "increasing" {
		t.Fatalf("direction = %q", rel.Direction)
	}
	if rel.Correlation < 0.99 {
		t.Fatalf("correlation = %v, want ≈ 1 for a linear trend", rel.Correlation)
	}
	if rel.YMax-rel.YMin < 100 {
		t.Fatalf("trend spread = %v, want ≈ 150 over x ∈ [0, 50]", rel.YMax-rel.YMin)
	}
}

func TestDiscoverRelationshipDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 30000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = 100 - 7*xs[i] + rng.NormFloat64()*0.5
	}
	tb := dbest.NewTable("dec")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	eng := dbest.New(nil)
	_ = eng.RegisterTable(tb)
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "dec", XCols: []string{"x"}, YCol: "y", SampleSize: 8000, Seed: 52,
	}); err != nil {
		t.Fatal(err)
	}
	rel, err := eng.DiscoverRelationship("dec", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Direction != "decreasing" || rel.Correlation > -0.99 {
		t.Fatalf("rel = %+v", rel)
	}
}

func TestDescribe(t *testing.T) {
	eng := analyticsEngine(t)
	d, err := eng.Describe("lin", "x", "y", 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	// x uniform on [0,50]: the window holds 40% of 60k rows.
	if re := relErr(d.Count, 24000); re > 0.05 {
		t.Fatalf("Count = %v", d.Count)
	}
	if re := relErr(d.Avg, 3*20+20); re > 0.03 {
		t.Fatalf("Avg = %v", d.Avg)
	}
	if re := relErr(d.Sum, d.Count*d.Avg); re > 1e-6 {
		t.Fatalf("Sum inconsistent: %v vs %v", d.Sum, d.Count*d.Avg)
	}
	if d.StdDev != math.Sqrt(d.Variance) {
		t.Fatal("StdDev != sqrt(Variance)")
	}
	// Conditional x quartiles of a uniform window.
	if math.Abs(d.XMedian-20) > 1 || math.Abs(d.XQ1-15) > 1 || math.Abs(d.XQ3-25) > 1 {
		t.Fatalf("quartiles = %v %v %v", d.XQ1, d.XMedian, d.XQ3)
	}
	if _, err := eng.Describe("lin", "x", "y", 400, 500); err == nil {
		t.Fatal("want error for empty region")
	}
}

func TestSparkline(t *testing.T) {
	s := dbest.Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if strings.Count(s, "") == 0 || len([]rune(s)) != 8 {
		t.Fatalf("sparkline = %q", s)
	}
	if []rune(s)[0] != '▁' || []rune(s)[7] != '█' {
		t.Fatalf("sparkline = %q", s)
	}
	if dbest.Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	flat := dbest.Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat = %q", flat)
	}
}
