package kde

import (
	"math/rand"
	"testing"
)

func benchData(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 50
	}
	return xs
}

func BenchmarkNewBinned10k(b *testing.B) {
	data := benchData(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewBinned(data, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// trainShaped is the estimator training actually evaluates: the default
// 1 024 bins over a 10 000-row sample of a spread-out column, where
// Silverman's bandwidth is ≈ 42 bin steps and a kernel window ≈ 680 nodes.
// (benchData's 100 000 normal draws give h/step ≈ 10.)
func trainShaped(b *testing.B) *Binned {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	est, err := NewBinned(xs, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if r := est.H / est.step(); r < 35 || r > 50 {
		b.Fatalf("h/step = %.1f, want ≈ 40", r)
	}
	return est
}

var benchSink float64

// BenchmarkBinnedDensity and BenchmarkBinnedCDF time the two closed forms
// the grid build calls per knot and per quadrature node, at points spread
// over the support so edge windows and reflections take their share.
func BenchmarkBinnedDensity(b *testing.B) {
	est := trainShaped(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = est.Density(float64(i%997) * 100 / 997)
	}
}

func BenchmarkBinnedCDF(b *testing.B) {
	est := trainShaped(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = est.CDF(float64(i%997) * 100 / 997)
	}
}

func BenchmarkBinnedMass(b *testing.B) {
	est, err := NewBinned(benchData(100_000), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Mass(40, 60)
	}
}

func BenchmarkBinnedQuantile(b *testing.B) {
	est, err := NewBinned(benchData(100_000), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Quantile(0.95)
	}
}

func BenchmarkExactDensity(b *testing.B) {
	est, err := NewExact(benchData(100_000), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Density(50)
	}
}

func BenchmarkMultivariateMass(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([][]float64, 4096)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	est, err := NewMultivariate(pts, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Mass([]float64{-1, -1}, []float64{1, 1})
	}
}
