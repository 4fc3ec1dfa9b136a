// Package kde implements Gaussian kernel density estimation — the density
// estimator D(x) at the heart of DBEst (§3, Density Estimator). It replaces
// sklearn.neighbors.KernelDensity with two from-scratch backings:
//
//   - Exact: the sorted sample with an 8σ kernel cutoff, giving
//     O(log n + k) point evaluation via binary search (the role the
//     Ball Tree / KD Tree plays for sklearn);
//   - Binned: linear binning onto a fixed grid, so the stored model size is
//     independent of the training sample size — this is what makes DBEst
//     models "a few 100s KBs" while samples are MBs.
//
// For a Gaussian kernel the CDF is a closed-form sum of Φ terms, so range
// mass ∫_lb^ub D(x)dx (COUNT, Eq. 1) and the PERCENTILE root-finding problem
// (Eq. 4) need no numerical quadrature.
//
// Training evaluates the binned estimator tens of thousands of times per
// model (every knot, panel midpoint and quadrature node of the evaluation
// grid), so Binned's two sums cost what their arithmetic needs. Its nodes
// are regular, which factors the kernel at node j0+k, seen from x = x_j0 + δ,
// into exp(−δ²/2h²) · qᵏ · exp(−(k·step/h)²/2) with q = exp(δ·step/h²): the
// last factor is tabulated once per estimator, the middle one is a running
// product, and a density costs three exp calls instead of one per node in
// the kernel window. That holds for every h/step — a bandwidth far below the
// bin step leaves at most one node in the window and nothing to multiply, a
// bandwidth far above it makes q ≈ 1 — at the price of one rounding per
// step of the product, ≈ K ulps over a K-node reach (1e-13 at worst). The
// CDF needs a Φ per window node whatever is done (the erfc floor), but only
// per window node: the nodes below the window are a prefix sum read from a
// table, added in the order the full loop would add them, so its values do
// not change by a bit. See Binned.rawDensity and Binned.rawCDF.
//
// A reflected estimator folds each edge's spill back once. Where h is
// within a few domain widths, the mass that would need a second fold —
// Σ wᵢ·Φ((2Lo − Hi − xᵢ)/h) — is lost, so the raw reflected CDF stops short
// of 1 at Hi and steps there. Both Density and CDF divide by the mass they
// keep inside [Lo, Hi], computed once per estimator, so the CDF runs
// continuously from 0 to 1.
package kde

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"
)

// kernelCutoff is the distance, in bandwidths, beyond which the Gaussian
// kernel is treated as zero. exp(-32) ≈ 1.3e-14 leaves no visible error at
// float64 precision for the aggregates computed from the estimator.
const kernelCutoff = 8.0

const invSqrt2Pi = 0.3989422804014327 // 1/sqrt(2π)

// gaussKernel is the standard normal pdf.
func gaussKernel(u float64) float64 { return invSqrt2Pi * math.Exp(-0.5*u*u) }

// stdNormCDF is Φ, the standard normal CDF.
func stdNormCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// Estimator is a one-dimensional probability density estimate normalized to
// unity, supporting the operations DBEst needs: point density, range mass,
// quantiles, and support bounds.
type Estimator interface {
	// Density evaluates the pdf at x.
	Density(x float64) float64
	// CDF evaluates the cumulative distribution at x.
	CDF(x float64) float64
	// Mass returns ∫_lb^ub D(x) dx.
	Mass(lb, ub float64) float64
	// Quantile returns x such that CDF(x) = p, for p in [0, 1].
	Quantile(p float64) float64
	// Support returns bounds outside which the density is (effectively) zero.
	Support() (lo, hi float64)
}

// Bandwidth selection rules.
type BandwidthRule int

const (
	// Silverman is Silverman's rule of thumb,
	// h = 0.9·min(σ, IQR/1.34)·n^(-1/5).
	Silverman BandwidthRule = iota
	// Scott is Scott's rule, h = 1.06·σ·n^(-1/5).
	Scott
)

// SelectBandwidth computes a kernel bandwidth for the data under the given
// rule. The data need not be sorted. It returns a small positive floor when
// the data are degenerate (constant), so the estimator remains proper.
func SelectBandwidth(data []float64, rule BandwidthRule) float64 {
	n := len(data)
	if n == 0 {
		return 1
	}
	mean, m2 := 0.0, 0.0
	for i, v := range data {
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	sigma := math.Sqrt(m2 / float64(n))
	nf := math.Pow(float64(n), -0.2)
	var h float64
	switch rule {
	case Scott:
		h = 1.06 * sigma * nf
	default:
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)
		spread := sigma
		if iqr > 0 && iqr/1.34 < spread {
			spread = iqr / 1.34
		}
		h = 0.9 * spread * nf
	}
	if h <= 0 || math.IsNaN(h) {
		// Degenerate data: fall back to a floor relative to magnitude.
		scale := math.Abs(mean)
		if scale == 0 {
			scale = 1
		}
		h = 1e-6 * scale
	}
	return h
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Exact is a sample-backed Gaussian KDE over the sorted training points.
type Exact struct {
	X []float64 // sorted sample
	H float64   // bandwidth
}

// NewExact builds an exact Gaussian KDE over data with the given bandwidth;
// pass h <= 0 to select by Silverman's rule. The data slice is copied.
//
//lint:deadexport test oracle: the closed-form KDE the binned estimator and the grids are checked against
func NewExact(data []float64, h float64) (*Exact, error) {
	if len(data) == 0 {
		return nil, errors.New("kde: empty sample")
	}
	if h <= 0 {
		h = SelectBandwidth(data, Silverman)
	}
	x := append([]float64(nil), data...)
	sort.Float64s(x)
	return &Exact{X: x, H: h}, nil
}

// Density evaluates the pdf at x in O(log n + k) by restricting the kernel
// sum to points within the cutoff radius.
func (e *Exact) Density(x float64) float64 {
	r := kernelCutoff * e.H
	lo := sort.SearchFloat64s(e.X, x-r)
	hi := sort.SearchFloat64s(e.X, x+r)
	sum := 0.0
	for _, xi := range e.X[lo:hi] {
		sum += gaussKernel((x - xi) / e.H)
	}
	return sum / (float64(len(e.X)) * e.H)
}

// CDF evaluates the closed-form Gaussian-mixture CDF at x.
func (e *Exact) CDF(x float64) float64 {
	r := kernelCutoff * e.H
	lo := sort.SearchFloat64s(e.X, x-r)
	hi := sort.SearchFloat64s(e.X, x+r)
	// Points below x-r contribute Φ(≥8) ≈ 1; points above x+r contribute 0.
	sum := float64(lo)
	for _, xi := range e.X[lo:hi] {
		sum += stdNormCDF((x - xi) / e.H)
	}
	return sum / float64(len(e.X))
}

// Mass returns ∫_lb^ub D, clamping reversed bounds to zero mass.
func (e *Exact) Mass(lb, ub float64) float64 {
	if ub <= lb {
		return 0
	}
	m := e.CDF(ub) - e.CDF(lb)
	if m < 0 {
		return 0
	}
	return m
}

// Support returns the sample range padded by the kernel cutoff.
func (e *Exact) Support() (lo, hi float64) {
	pad := kernelCutoff * e.H
	return e.X[0] - pad, e.X[len(e.X)-1] + pad
}

// Quantile inverts the CDF by bisection (the paper's "Naive Bisection").
func (e *Exact) Quantile(p float64) float64 {
	return quantileByBisection(e, p)
}

// Binned is a grid-compressed Gaussian KDE: the sample is linearly binned
// onto a uniform grid and the kernel sum runs over bin centers weighted by
// bin mass. Its size is O(bins), independent of the training sample size.
//
// By default the estimator applies boundary reflection: the data extent
// [Lo, Hi] is treated as the support and kernel mass that would spill past
// an edge is reflected back inside. Without this, range predicates near a
// hard domain boundary (a minimum temperature, a price floor) are biased
// low by up to half a bandwidth of mass — a bias that does not shrink with
// sample size.
type Binned struct {
	Lo, Hi  float64   // grid extent (sample min/max)
	H       float64   // bandwidth
	Weights []float64 // bin masses, summing to 1
	N       int       // training sample size (for bookkeeping)
	Reflect bool      // boundary reflection at Lo and Hi

	// tab holds the estimator's shared tables, nil until a Density or CDF
	// call builds them. Unexported, so gob neither writes nor sizes it. The
	// tables describe the fields above as they were at that first call, so a
	// Binned is not altered once used — and, holding an atomic, not copied.
	tab atomic.Pointer[binnedTab]
}

// DefaultBins is the grid resolution used when 0 is passed to NewBinned.
const DefaultBins = 1024

// NewBinned builds a binned Gaussian KDE with the given number of grid bins
// (0 means DefaultBins) and bandwidth (<= 0 means Silverman's rule).
func NewBinned(data []float64, bins int, h float64) (*Binned, error) {
	if len(data) == 0 {
		return nil, errors.New("kde: empty sample")
	}
	if bins <= 0 {
		bins = DefaultBins
	}
	if h <= 0 {
		h = SelectBandwidth(data, Silverman)
	}
	lo, hi := data[0], data[0]
	for _, v := range data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		// Degenerate (constant) data: a single-bin estimator.
		return &Binned{Lo: lo, Hi: hi, H: h, Weights: []float64{1}, N: len(data)}, nil
	}
	// Reflection assumes the bandwidth is small relative to the domain so
	// the two edges do not interact; otherwise fall back to plain KDE.
	reflect := h < (hi-lo)/4
	w := make([]float64, bins)
	step := (hi - lo) / float64(bins-1)
	inc := 1 / float64(len(data))
	for _, v := range data {
		// Linear binning: split each point's mass between the two nearest
		// grid nodes, preserving the first moment of the sample.
		pos := (v - lo) / step
		i := int(pos)
		if i >= bins-1 {
			w[bins-1] += inc
			continue
		}
		frac := pos - float64(i)
		w[i] += inc * (1 - frac)
		w[i+1] += inc * frac
	}
	return &Binned{Lo: lo, Hi: hi, H: h, Weights: w, N: len(data), Reflect: reflect}, nil
}

func (b *Binned) step() float64 {
	if len(b.Weights) <= 1 {
		return 0
	}
	return (b.Hi - b.Lo) / float64(len(b.Weights)-1)
}

// binnedTab is what every Density and CDF call on one estimator shares: the
// kernel at whole-bin offsets, the running bin mass, and the two reflection
// terms that do not depend on x. It is derived state — built on first use,
// never persisted.
type binnedTab struct {
	step float64
	// kern[k] = exp(−(k·step/h)²/2), for every offset k between two nodes.
	kern []float64
	// pre[i] = Weights[0] + … + Weights[i−1], summed in index order.
	pre []float64
	// upper is rawCDF(2Hi − Lo), the upper-edge reflection constant of CDF.
	upper float64
	// mass is what a reflected estimator keeps inside [Lo, Hi]:
	// upper − rawCDF(2Lo − Hi), the reflected CDF at Hi before normalising.
	mass float64
}

// tables returns the estimator's shared tables, building them on first use.
// Goroutines that race to build them compute identical tables, so whichever
// store lands last is as good as the first; the pointer is only ever read
// and written atomically.
func (b *Binned) tables() *binnedTab {
	if t := b.tab.Load(); t != nil {
		return t
	}
	n := len(b.Weights)
	t := &binnedTab{step: b.step()}
	t.kern = make([]float64, n)
	for k := range t.kern {
		u := float64(k) * t.step / b.H
		t.kern[k] = math.Exp(-0.5 * u * u)
	}
	t.pre = make([]float64, n+1)
	for i, wi := range b.Weights {
		t.pre[i+1] = t.pre[i] + wi
	}
	t.upper = b.rawCDF(t, 2*b.Hi-b.Lo)
	t.mass = t.upper - b.rawCDF(t, 2*b.Lo-b.Hi)
	b.tab.Store(t)
	return t
}

// Density evaluates the pdf at x over the grid nodes within the cutoff.
func (b *Binned) Density(x float64) float64 {
	switch len(b.Weights) {
	case 0:
		return 0 // no bins, no mass (a zero value, or a hostile catalog)
	case 1:
		return gaussKernel((x-b.Lo)/b.H) / b.H
	}
	if b.Reflect && (x < b.Lo || x > b.Hi) {
		return 0
	}
	t := b.tables()
	d := b.rawDensity(t, x)
	if b.Reflect {
		// Reflect the spilled edge mass back into the support.
		d += b.rawDensity(t, 2*b.Lo-x)
		d += b.rawDensity(t, 2*b.Hi-x)
		d /= t.mass
	}
	return d
}

// rawDensity is the unreflected kernel sum at x, which may lie outside the
// grid (the reflection arguments do). The nodes are regular, so with j0 the
// in-window node nearest x and δ = x − x_j0 the kernel at node j0±k factors
// as
//
//	exp(−(δ∓k·step)²/2h²) = exp(−δ²/2h²) · q^±k · kern[k],  q = exp(δ·step/h²)
//
// and the sum walks up and down from j0 with a running power of q: three
// exp calls where the direct sum makes one per node in the window. The
// running product picks up one rounding per step, so the sum differs from
// the direct one by about as many ulps as the window has nodes to a side
// (≤ len(kern), ~1e-13 relative at worst).
//
// The factors cannot overflow or vanish for any h/step: every in-window
// term, and exp(−δ²/2h²) itself, lies in [e⁻³², 1], which bounds
// q^±k·kern[k] by e³²; kern[k] ≤ 1 then bounds q^±k from below, and q is
// only raised to a power when the window holds a second node, i.e. step ≤
// 16h, where q^±k ≤ e¹²⁸.
func (b *Binned) rawDensity(t *binnedTab, x float64) float64 {
	w := b.Weights
	r := kernelCutoff * b.H
	// The window in node indices, clamped as floats: an x far outside the
	// grid (or not a number) must not reach an int conversion.
	flo := math.Max(math.Ceil((x-r-b.Lo)/t.step), 0)
	fhi := math.Min(math.Floor((x+r-b.Lo)/t.step), float64(len(w)-1))
	if !(flo <= fhi) {
		return 0
	}
	lo, hi := int(flo), int(fhi)
	j0 := int(math.Min(math.Max(math.Round((x-b.Lo)/t.step), flo), fhi))
	u0 := (x - (b.Lo + float64(j0)*t.step)) / b.H
	a := u0 * (t.step / b.H)
	sum := w[j0]
	if j0 < hi {
		q, p := math.Exp(a), 1.0
		for i := j0 + 1; i <= hi; i++ {
			p *= q
			sum += w[i] * (p * t.kern[i-j0])
		}
	}
	if j0 > lo {
		q, p := math.Exp(-a), 1.0
		for i := j0 - 1; i >= lo; i-- {
			p *= q
			sum += w[i] * (p * t.kern[j0-i])
		}
	}
	return gaussKernel(u0) * sum / b.H
}

// CDF evaluates the closed-form mixture CDF at x.
func (b *Binned) CDF(x float64) float64 {
	switch len(b.Weights) {
	case 0:
		return 0
	case 1:
		return stdNormCDF((x - b.Lo) / b.H)
	}
	t := b.tables()
	if !b.Reflect {
		return b.rawCDF(t, x)
	}
	switch {
	case x <= b.Lo:
		return 0
	case x >= b.Hi:
		return 1
	}
	// F(x) = ∫_Lo^x [f_raw(t) + f_raw(2Lo−t) + f_raw(2Hi−t)] dt, where the
	// two reflection integrals substitute to raw-CDF differences:
	// lower: F_raw(Lo) − F_raw(2Lo−x); upper: F_raw(2Hi−Lo) − F_raw(2Hi−x).
	// Divided by F(Hi), the mass inside the support.
	c := (b.rawCDF(t, x) - b.rawCDF(t, 2*b.Lo-x) +
		t.upper - b.rawCDF(t, 2*b.Hi-x)) / t.mass
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// rawCDF is the unreflected mixture CDF at x: Σ wᵢ·Φ((x − xᵢ)/h) with Φ
// taken as 1 at or above the cutoff and 0 at or below minus the cutoff.
// (x − xᵢ)/h does not increase with i, so the nodes counted in full are a
// prefix [0, full) — read from the running bin mass — and only the nodes of
// the window [full, end) need a Φ. The two boundaries are estimated from
// the node spacing and then settled by the same per-node comparison the
// full loop would make, and the terms are added in index order, so the
// value is bit for bit the full loop's.
func (b *Binned) rawCDF(t *binnedTab, x float64) float64 {
	w := b.Weights
	n := len(w)
	u := func(i int) float64 { return (x - (b.Lo + float64(i)*t.step)) / b.H }
	r := kernelCutoff * b.H
	full := nodeCount((x-r-b.Lo)/t.step+1, n)
	for full > 0 && !(u(full-1) >= kernelCutoff) {
		full--
	}
	for full < n && u(full) >= kernelCutoff {
		full++
	}
	end := max(nodeCount((x+r-b.Lo)/t.step+1, n), full)
	for end > full && !(u(end-1) > -kernelCutoff) {
		end--
	}
	for end < n && u(end) > -kernelCutoff {
		end++
	}
	sum := t.pre[full]
	for i := full; i < end; i++ {
		if w[i] == 0 {
			continue
		}
		sum += w[i] * stdNormCDF(u(i))
	}
	return sum
}

// nodeCount converts a node count computed in floats to an int in [0, n];
// a NaN counts as none.
func nodeCount(f float64, n int) int {
	if !(f > 0) {
		return 0
	}
	if f > float64(n) {
		return n
	}
	return int(f)
}

// Mass returns ∫_lb^ub D, clamping reversed bounds to zero mass.
func (b *Binned) Mass(lb, ub float64) float64 {
	if ub <= lb {
		return 0
	}
	m := b.CDF(ub) - b.CDF(lb)
	if m < 0 {
		return 0
	}
	return m
}

// Support returns the region where the density is nonzero: exactly the
// data extent under reflection, padded by the kernel cutoff otherwise.
func (b *Binned) Support() (lo, hi float64) {
	if b.Reflect && len(b.Weights) > 1 {
		return b.Lo, b.Hi
	}
	pad := kernelCutoff * b.H
	return b.Lo - pad, b.Hi + pad
}

// Quantile inverts the CDF by bisection.
func (b *Binned) Quantile(p float64) float64 {
	return quantileByBisection(b, p)
}

// quantileByBisection solves CDF(x) = p on the estimator's support by
// bisection — Eq. 4 of the paper.
func quantileByBisection(e Estimator, p float64) float64 {
	lo, hi := e.Support()
	if p <= 0 {
		return lo
	}
	if p >= 1 {
		return hi
	}
	for i := 0; i < 200 && hi-lo > 1e-12*math.Max(1, math.Abs(hi)+math.Abs(lo)); i++ {
		mid := 0.5 * (lo + hi)
		if e.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
