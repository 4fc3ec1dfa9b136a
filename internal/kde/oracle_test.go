package kde

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The oracles are the direct evaluations Binned used before its Density and
// CDF learned to share tables: one exp per window node, and a CDF loop over
// every bin. They are kept here, not beside the fast code, so there is one
// Density and one CDF to serve and these to answer for them.

func oracleRawDensity(b *Binned, x float64) float64 {
	step := b.step()
	r := kernelCutoff * b.H
	lo := int(math.Ceil((x - r - b.Lo) / step))
	hi := int(math.Floor((x + r - b.Lo) / step))
	if lo < 0 {
		lo = 0
	}
	if hi > len(b.Weights)-1 {
		hi = len(b.Weights) - 1
	}
	sum := 0.0
	for i := lo; i <= hi; i++ {
		if b.Weights[i] == 0 {
			continue
		}
		xi := b.Lo + float64(i)*step
		sum += b.Weights[i] * gaussKernel((x-xi)/b.H)
	}
	return sum / b.H
}

func oracleDensity(b *Binned, x float64) float64 {
	if len(b.Weights) == 1 {
		return gaussKernel((x-b.Lo)/b.H) / b.H
	}
	if b.Reflect && (x < b.Lo || x > b.Hi) {
		return 0
	}
	d := oracleRawDensity(b, x)
	if b.Reflect {
		d += oracleRawDensity(b, 2*b.Lo-x)
		d += oracleRawDensity(b, 2*b.Hi-x)
		d /= oracleMass(b)
	}
	return d
}

// oracleMass is the mass a reflected estimator keeps inside [Lo, Hi]: the
// unnormalised reflected CDF at Hi. Density and CDF are divided by it.
func oracleMass(b *Binned) float64 {
	return oracleRawCDF(b, 2*b.Hi-b.Lo) - oracleRawCDF(b, 2*b.Lo-b.Hi)
}

func oracleRawCDF(b *Binned, x float64) float64 {
	step := b.step()
	sum := 0.0
	for i, wi := range b.Weights {
		if wi == 0 {
			continue
		}
		xi := b.Lo + float64(i)*step
		u := (x - xi) / b.H
		switch {
		case u >= kernelCutoff:
			sum += wi
		case u > -kernelCutoff:
			sum += wi * stdNormCDF(u)
		}
	}
	return sum
}

func oracleCDF(b *Binned, x float64) float64 {
	if len(b.Weights) == 1 {
		return stdNormCDF((x - b.Lo) / b.H)
	}
	if !b.Reflect {
		return oracleRawCDF(b, x)
	}
	switch {
	case x <= b.Lo:
		return 0
	case x >= b.Hi:
		return 1
	}
	c := (oracleRawCDF(b, x) - oracleRawCDF(b, 2*b.Lo-x) +
		oracleRawCDF(b, 2*b.Hi-b.Lo) - oracleRawCDF(b, 2*b.Hi-x)) / oracleMass(b)
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// oracleBinned builds an estimator directly — NewBinned would pick the
// bandwidth and the reflection itself — with bins nodes (1 gives the
// single-bin estimator), bandwidth ratio·step, and seeded weights of which
// about a third are zero.
func oracleBinned(seed int64, bins int, ratio float64, reflect bool) *Binned {
	rng := rand.New(rand.NewSource(seed))
	lo := (rng.Float64() - 0.5) * math.Pow(10, 6*rng.Float64()-2)
	span := math.Pow(10, 8*rng.Float64()-3)
	if bins == 1 {
		return &Binned{Lo: lo, Hi: lo, H: ratio * span, Weights: []float64{1}, N: 1}
	}
	w := make([]float64, bins)
	total := 0.0
	for i := range w {
		if rng.Intn(3) > 0 {
			w[i] = rng.ExpFloat64()
			total += w[i]
		}
	}
	if total == 0 {
		w[0], total = 1, 1
	}
	for i := range w {
		w[i] /= total
	}
	step := span / float64(bins-1)
	return &Binned{Lo: lo, Hi: lo + span, H: ratio * step, Weights: w, N: bins, Reflect: reflect}
}

// againstOracle holds Density to 1e-12 of the direct sum (the running
// product's error grows with the window, to ~1e-13 at 1 024 nodes) and CDF
// to the full loop's bits. The direct sum is itself only as good as its
// inputs: it rounds every x − xᵢ at the magnitude of x and the grid, which
// in bandwidths is an error of cond in the kernel argument and up to
// kernelCutoff·cond in the kernel — where the walk, which takes every offset
// from one node, rounds once. So the bound widens by that much where the
// grid sits far from zero relative to h; near zero it is the 1e-12.
func againstOracle(t *testing.T, b *Binned, x float64) {
	t.Helper()
	got, want := b.Density(x), oracleDensity(b, x)
	cond := 0x1p-52 * (math.Abs(x) + 2*math.Abs(b.Lo) + 2*math.Abs(b.Hi)) / b.H
	if !(math.Abs(got-want) <= (1e-12+kernelCutoff*cond)*math.Max(math.Abs(want), 1e-300)) {
		t.Errorf("bins=%d h/step=%g reflect=%v: Density(%v) = %v, direct sum %v (rel %.3g)",
			len(b.Weights), b.H/b.step(), b.Reflect, x, got, want, math.Abs(got-want)/math.Abs(want))
	}
	if got, want := b.CDF(x), oracleCDF(b, x); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("bins=%d h/step=%g reflect=%v: CDF(%v) = %v, full loop %v",
			len(b.Weights), b.H/b.step(), b.Reflect, x, got, want)
	}
}

// probePoints are where a windowed sum can go wrong: inside the grid, on
// nodes and half way between them, on the edges, where a node enters or
// leaves the kernel window, and up to 20 bandwidths outside.
func probePoints(rng *rand.Rand, b *Binned) []float64 {
	span, step := b.Hi-b.Lo, b.step()
	xs := []float64{b.Lo, b.Hi, math.Nextafter(b.Lo, b.Hi), math.Nextafter(b.Hi, b.Lo)}
	for i := 0; i < 24; i++ {
		xs = append(xs, b.Lo+span*rng.Float64())
		node := b.Lo + float64(rng.Intn(len(b.Weights)))*step
		xs = append(xs, node, node+step/2,
			node+kernelCutoff*b.H, node-kernelCutoff*b.H,
			math.Nextafter(node+kernelCutoff*b.H, b.Lo), math.Nextafter(node-kernelCutoff*b.H, b.Hi))
		out := 20 * b.H * rng.Float64()
		xs = append(xs, b.Lo-out, b.Hi+out)
	}
	return xs
}

var oracleRatios = []float64{1e-3, 1e-2, 0.06, 0.12, 0.5, 1, 3, 16, 42, 200, 1e3}

func TestBinnedMatchesDirectSums(t *testing.T) {
	seed := int64(0)
	for _, bins := range []int{1, 2, 3, 64, 1024} {
		for _, ratio := range oracleRatios {
			for _, reflect := range []bool{false, true} {
				seed++
				b := oracleBinned(seed, bins, ratio, reflect)
				rng := rand.New(rand.NewSource(seed))
				xs := probePoints(rng, b)
				for _, x := range xs {
					againstOracle(t, b, x)
				}
				// Mass never shrinks as its upper bound grows (to the few
				// ulps of total mass erfc itself may wobble by).
				lb, prev := b.Lo-20*b.H, 0.0
				for i := 0; i <= 200; i++ {
					ub := lb + (b.Hi-b.Lo+40*b.H)*float64(i)/200
					m := b.Mass(lb, ub)
					if m < prev-1e-15 {
						t.Errorf("bins=%d h/step=%g reflect=%v: Mass(%v, %v) = %v below %v at a smaller bound",
							bins, ratio, reflect, lb, ub, m, prev)
					}
					prev = m
				}
			}
		}
	}
}

// TestBinnedTablesFollowTheEstimator: the tables are built from the
// estimator's first use, and an estimator with no bins builds none — its
// zero value answers no mass.
func TestBinnedTablesFollowTheEstimator(t *testing.T) {
	var empty Binned
	if d, f := empty.Density(1), empty.CDF(1); d != 0 || f != 0 {
		t.Errorf("zero-value estimator: Density %v, CDF %v, want 0", d, f)
	}
}

// TestBinnedTablesBuiltConcurrently: a loaded model has no tables until its
// first Density or CDF call, and queries arrive on many goroutines. Whoever
// builds them, every caller reads the serial answer (run under -race).
func TestBinnedTablesBuiltConcurrently(t *testing.T) {
	for round := int64(0); round < 10; round++ {
		b := oracleBinned(round, 256, 12, true)
		xs := probePoints(rand.New(rand.NewSource(round)), b)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, x := range xs {
					if got, want := b.CDF(x), oracleCDF(b, x); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("CDF(%v) = %v, full loop %v", x, got, want)
					}
					if d := b.Density(x); math.IsNaN(d) {
						t.Errorf("Density(%v) = NaN", x)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestBinnedSubResolutionGrid: on a grid a few ulps wide the nodes collapse
// onto a handful of floats and the window arithmetic no longer describes
// them. Nothing there is accurate, with either sum, but it must stay a
// number: training then refuses the model, naming the grid it could not
// tabulate, instead of failing on a NaN.
func TestBinnedSubResolutionGrid(t *testing.T) {
	for _, h := range []float64{0x1p-54, 0x1p-57, 1e-20} {
		w := make([]float64, 1024)
		for i := range w {
			w[i] = 1.0 / 1024
		}
		for _, reflect := range []bool{false, true} {
			b := &Binned{Lo: 1, Hi: 1 + 3*0x1p-52, H: h, Weights: w, N: 500, Reflect: reflect}
			for k := -8.0; k <= 12; k++ {
				x := 1 + k*0x1p-52
				if d := b.Density(x); math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
					t.Errorf("h=%g reflect=%v: Density(1%+gulp) = %v", h, reflect, k, d)
				}
				if got, want := b.CDF(x), oracleCDF(b, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("h=%g reflect=%v: CDF(1%+gulp) = %v, full loop %v", h, reflect, k, got, want)
				}
			}
		}
	}
}

// TestBinnedReflectedCDFContinuousAtEdges: a reflected CDF reaches 0 at Lo
// and 1 at Hi without a step, however close the bandwidth comes to the
// quarter-width where reflection is switched off — the edge a single fold
// leaks mass from.
func TestBinnedReflectedCDFContinuousAtEdges(t *testing.T) {
	for _, ratio := range []float64{0.01, 0.1, 0.24} {
		for seed := int64(0); seed < 4; seed++ {
			b := oracleBinned(seed, 1024, 1, true)
			// On [0, 1] one ulp moves the CDF by ~1e-16 of genuine slope.
			b.Lo, b.Hi, b.H = 0, 1, ratio
			below, above := math.Nextafter(b.Hi, b.Lo), math.Nextafter(b.Lo, b.Hi)
			if d := math.Abs(b.CDF(below) - b.CDF(b.Hi)); d > 1e-15 {
				t.Errorf("h/width=%g seed=%d: CDF steps by %.3g at Hi", ratio, seed, d)
			}
			if d := math.Abs(b.CDF(above) - b.CDF(b.Lo)); d > 1e-15 {
				t.Errorf("h/width=%g seed=%d: CDF steps by %.3g at Lo", ratio, seed, d)
			}
		}
	}
}

// FuzzBinnedDensity lets the fuzzer pick the estimator's shape and the
// probe: whatever it finds, Density stays within 1e-12 of the direct sum
// and CDF equals the full loop.
func FuzzBinnedDensity(f *testing.F) {
	for _, bins := range []uint16{1, 2, 3, 64, 1024} {
		for _, ratio := range []float64{1e-3, 0.12, 1, 16, 42, 1e3} {
			f.Add(int64(bins), bins, ratio, bins%2 == 0, 0.5)
			f.Add(int64(bins)+1, bins, ratio, bins%2 == 1, -8*ratio/float64(bins))
			f.Add(int64(bins)+2, bins, ratio, true, 1.0)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, bins uint16, ratio float64, reflect bool, pos float64) {
		if bins == 0 || bins > 2048 || !(ratio >= 1e-4 && ratio <= 1e4) || math.IsNaN(pos) || math.IsInf(pos, 0) {
			t.Skip()
		}
		b := oracleBinned(seed, int(bins), ratio, reflect)
		// pos is in spans from Lo; keep it within 20 bandwidths of the grid.
		x := b.Lo + pos*(b.Hi-b.Lo)
		if bins == 1 {
			x = b.Lo + pos*b.H
		}
		x = math.Min(math.Max(x, b.Lo-20*b.H), b.Hi+20*b.H)
		againstOracle(t, b, x)
	})
}
