package core

import (
	"math"
	"math/rand"
	"testing"
)

// errBoundsPinSamples are three seeded training samples: uniform x with a
// linear y, a bimodal x with a curved y, and an integer-valued x whose
// heavy ties put equal values on both sides of every window edge.
func errBoundsPinSamples() [][2][]float64 {
	var out [][2][]float64
	for _, tb := range []struct {
		n    int
		seed int64
		gen  func(rng *rand.Rand) (x, y float64)
	}{
		{10000, 1, func(rng *rand.Rand) (float64, float64) {
			x := rng.Float64() * 100
			return x, 2*x + 10 + rng.NormFloat64()*2
		}},
		{2000, 4, func(rng *rand.Rand) (float64, float64) {
			x := 75 + rng.NormFloat64()*3
			if rng.Float64() < 0.6 {
				x = 30 + rng.NormFloat64()*5
			}
			return x, 0.05*x*x - 1.5*x + 40 + rng.NormFloat64()*3
		}},
		{5000, 9, func(rng *rand.Rand) (float64, float64) {
			x := math.Floor(rng.Float64() * 40)
			return x, 5 - 0.3*x + rng.NormFloat64()
		}},
	} {
		rng := rand.New(rand.NewSource(tb.seed))
		xs, ys := make([]float64, tb.n), make([]float64, tb.n)
		for i := range xs {
			xs[i], ys[i] = tb.gen(rng)
		}
		out = append(out, [2][]float64{xs, ys})
	}
	return out
}

// TestErrBoundsPinned pins the fitted coefficients bit for bit to the values
// the append-and-sort bootstrap produced (captured at PR 15): the RNG draw
// order, the per-window moments and the in-window median of every resample
// must not move when the median is found another way.
func TestErrBoundsPinned(t *testing.T) {
	// CountCoef, SumCoef, AvgCoef, VarCoef, PctCoef, ResidRel.
	want := [][6]uint64{
		{0x3fa060fccff6436b, 0x3f9a73899390770f, 0x3f8938ddcfb68071, 0x3f9f62db768643d3, 0x3f981f07d1000961, 0x3fe0ad5a7b2eb0da},
		{0x3fb2734e7f444241, 0x3faf8810ae4edd80, 0x3fa6fe4582d83a59, 0x3fbb7c578ef1fb99, 0x3f95b38836a8ffdb, 0x3fe8ba0bea091790},
		{0x3fa2fe4661298020, 0x3fbc9c36395be98f, 0x3fbbd2bec2fd5bbf, 0x3faef0f5688f2695, 0x3fa123252c7602ce, 0x3ff250394a712450},
	}
	for i, s := range errBoundsPinSamples() {
		eb := buildErrBounds(s[0], s[1], nil, int64(7+i))
		if eb == nil || eb.SampleN != len(s[0]) {
			t.Fatalf("sample %d: no bounds fitted", i)
		}
		got := [6]float64{eb.CountCoef, eb.SumCoef, eb.AvgCoef, eb.VarCoef, eb.PctCoef, eb.ResidRel}
		for j, g := range got {
			if math.Float64bits(g) != want[i][j] {
				t.Errorf("sample %d coefficient %d = %v (%#x), pinned %v (%#x)",
					i, j, g, math.Float64bits(g), math.Float64frombits(want[i][j]), want[i][j])
			}
		}
	}
}
