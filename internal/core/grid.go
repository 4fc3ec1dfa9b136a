package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"dbest/internal/kde"
	"dbest/internal/parallel"
	"dbest/internal/quadrature"
)

// Evaluation grids move the paper's integration cost (§3, Integral
// Evaluation) from query time to train time. Models are immutable between
// retrains, so every integral a range aggregate needs — ∫D·R, ∫D·R², ∫x·D,
// ∫x²·D and the CDF — can be tabulated once as a prefix-integral table over
// a knot grid spanning the density support. A range query then evaluates
// I(ub) − I(lb) with two interpolated lookups instead of an adaptive
// (G7, K15) quadrature run, and PERCENTILE inverts the cumulative-density
// table instead of bisecting the O(bins) CDF 200 times.
//
// The knot vector is the union of a base grid (half uniform over the
// support, half refined where the binned density carries mass) and every
// breakpoint of the regression ensemble's constituents. Tree-based
// constituents are piecewise constant and the piecewise-linear constituent
// is linear between breakpoints, so within any panel every R_c is exactly
// linear: R_c(x) = a·x + b. That turns the regression integrals into linear
// combinations of the density tables —
//
//	∫ D·R_c   = a·Δ(∫x·D)  + b·Δ(CDF)
//	∫ D·R_c²  = a²·Δ(∫x²·D) + 2ab·Δ(∫x·D) + b²·Δ(CDF)
//
// — so the grid stores only per-panel (a, b) plus prefix values at knots,
// and partial panels reuse the same interpolated CDF and x-moment lookups
// the density path uses. AVG of a range where the ensemble predicts a
// constant is exactly that constant: numerator and denominator share ΔCDF.
//
// The x-moment tables and the intercepts b are kept in the centred
// coordinate u = x − C, C the middle of the knot span; the knots stay in x.
// A column of epoch microseconds (x ≈ 1.7e15 over a day) then tabulates
// moments of |u| ≤ 4e10 instead of x ≈ 1e15, and b = R(x) − a·u no longer
// cancels a·x against R(x) to a few digits. MomentX adds the centre back.
//
// The grid is the only serving kernel: every published univariate model
// carries one, and no query reads the density estimator. A pair whose grid
// fails build-time validation — a constituent that is not piecewise linear
// over the panels, a support too narrow for float64 to place knots in, one
// far outlier stretching the support until the panels near the data cannot
// follow the CDF — is refused at train time (errNoGrid) instead of served
// some other way. internal/quadrature stays as the build's panel integrator
// and the tests' oracle.
//
// What a build evaluates, per model: the closed-form CDF and the density
// once at every knot and once at every panel midpoint that refinement looks
// at — each panel exactly once, the two halves of a split in the next round
// — and the density at the 15 Gauss–Kronrod nodes of every panel. The
// midpoint check is refinement's; validation takes its worst accepted error
// and walks the midpoints again only for a grid refinement did not finish
// (round or knot cap, panels of float width). The linear-R check against
// the Gauss–Kronrod pass runs on every panel of every grid. The per-knot
// and per-panel evaluations fan out over TrainConfig.Workers, each into its
// own slot, so the tables do not depend on the schedule.

// DefaultGridKnots is the base knot budget of every grid. Ensemble
// breakpoints are added on top, and refinement splits panels until the CDF
// holds; at default training sizes a grid costs on the order of 100 KB per
// model — within the paper's "a few 100s KBs" model budget.
const DefaultGridKnots = 512

// maxGridKnots bounds the knot vector against pathological breakpoint
// counts; beyond it breakpoints are thinned evenly (validation then decides
// whether the thinned grid is still accurate enough to keep).
const maxGridKnots = 32768

// gridErrBound gates build-time validation: the worst relative error of
// (a) the interpolated CDF against the closed-form CDF at panel midpoints
// (refinement splits a panel at half this bound, so a finished refinement
// has already passed it) and (b) the per-panel linear reconstruction of
// ∫D·R_c against a fused Gauss–Kronrod evaluation of the same panel. (b)
// is ~1e-15 when the panel model holds, so anything near the bound means a
// constituent the grid cannot represent.
const gridErrBound = 1e-8

// Process-wide evaluation-kernel counters (exposed as /stats fields).
// gridHits counts univariate moment and quantile evaluations answered by a
// grid (its mass lookups ride along uncounted); gridFallbacks counts the
// multivariate path's tensor-quadrature integrals, the only quadrature left
// on the serving path.
var (
	gridHits      atomic.Uint64
	gridFallbacks atomic.Uint64
)

// EvalCounters is a snapshot of the process-wide evaluation-kernel
// counters.
type EvalCounters struct {
	GridHits      uint64
	GridFallbacks uint64
}

// ReadEvalCounters snapshots the evaluation-kernel counters.
func ReadEvalCounters() EvalCounters {
	return EvalCounters{
		GridHits:      gridHits.Load(),
		GridFallbacks: gridFallbacks.Load(),
	}
}

// ResetEvalCounters zeroes the evaluation-kernel counters (tests and A/B
// benchmarks).
//
//lint:deadexport test support: the kernel tests of core and exec zero the process-wide counters before counting
func ResetEvalCounters() {
	gridHits.Store(0)
	gridFallbacks.Store(0)
}

// EvalGrid is a model's precomputed prefix-integral table set. The
// regression tables are per ensemble constituent — the ensemble selects a
// constituent per query range, so baking a single R into the grid would
// silently change selection semantics; instead the lookup picks the tables
// of the constituent ForRange resolves to.
//
// The density tables interpolate with cubic Hermite segments whose knot
// derivatives are exact (D for CumD, u·D for CumXD, u²·D for CumX2D):
// O(h⁴) between knots, exact at knots. CumD is anchored by the closed-form
// CDF at every knot, so the CDF tables carry no accumulated quadrature
// error.
type EvalGrid struct {
	Knots []float64 // strictly increasing, spanning the density support
	// C centres the moment tables and intercepts: u = x − C. Grids saved
	// before the centring decode with C = 0, which is what they tabulated.
	C      float64
	DVal   []float64 // D(knot): derivative of CumD
	CumD   []float64 // closed-form CDF at knots
	CumXD  []float64 // prefix ∫ u·D
	CumX2D []float64 // prefix ∫ u²·D

	// Per-constituent panel coefficients (length len(Knots)−1): within
	// panel k, R_c(x) = RA[c][k]·u + RB[c][k].
	RA [][]float64
	RB [][]float64
	// Per-constituent prefix integrals at knots.
	CumDR  [][]float64 // prefix ∫ D·R_c
	CumDR2 [][]float64 // prefix ∫ D·R_c²

	// MaxRelErr is the worst relative error observed during build-time
	// validation.
	MaxRelErr float64
}

// Valid reports whether the grid's tables have the shapes lookups index:
// every knot table as long as the knots, and per constituent a panel
// coefficient and two knot prefixes. A nil receiver is not valid (models
// saved with grids disabled decode with a nil grid).
func (g *EvalGrid) Valid() bool {
	if g == nil || len(g.Knots) < 2 {
		return false
	}
	nk := len(g.Knots)
	if len(g.DVal) != nk || len(g.CumD) != nk || len(g.CumXD) != nk || len(g.CumX2D) != nk {
		return false
	}
	nc := len(g.CumDR)
	if nc == 0 || len(g.RA) != nc || len(g.RB) != nc || len(g.CumDR2) != nc {
		return false
	}
	for c := 0; c < nc; c++ {
		if len(g.RA[c]) != nk-1 || len(g.RB[c]) != nk-1 || len(g.CumDR[c]) != nk || len(g.CumDR2[c]) != nk {
			return false
		}
	}
	return true
}

// Span returns the knot span — the density support the grid tabulates.
func (g *EvalGrid) Span() (lo, hi float64) { return g.Knots[0], g.Knots[len(g.Knots)-1] }

// segment locates the panel containing x: the largest k with Knots[k] <= x,
// clamped to [0, len(Knots)-2].
func (g *EvalGrid) segment(x float64) int {
	k := sort.SearchFloat64s(g.Knots, x) - 1
	if k < 0 {
		k = 0
	}
	if k > len(g.Knots)-2 {
		k = len(g.Knots) - 2
	}
	return k
}

// hermite evaluates the cubic Hermite interpolant of the cumulative table
// cum at x, with exact knot derivatives d0, d1 supplied by the caller.
func hermite(x0, x1, c0, c1, d0, d1, x float64) float64 {
	h := x1 - x0
	if h <= 0 {
		return c0
	}
	t := (x - x0) / h
	t2 := t * t
	t3 := t2 * t
	return (2*t3-3*t2+1)*c0 + (t3-2*t2+t)*h*d0 + (-2*t3+3*t2)*c1 + (t3-t2)*h*d1
}

// momentXOnSegment interpolates the u-moment prefix (power 1 or 2) on panel
// k, using the exact integrand values at the knots as derivatives.
func (g *EvalGrid) momentXOnSegment(power, k int, x float64) float64 {
	x0, x1 := g.Knots[k], g.Knots[k+1]
	u0, u1 := x0-g.C, x1-g.C
	if power == 1 {
		return hermite(x0, x1, g.CumXD[k], g.CumXD[k+1], u0*g.DVal[k], u1*g.DVal[k+1], x)
	}
	return hermite(x0, x1, g.CumX2D[k], g.CumX2D[k+1], u0*u0*g.DVal[k], u1*u1*g.DVal[k+1], x)
}

// momentXAt interpolates the u-moment prefix at x, clamped to the knot span
// (the integrand vanishes outside the support).
func (g *EvalGrid) momentXAt(power int, x float64) float64 {
	n := len(g.Knots)
	cum := g.CumXD
	if power == 2 {
		cum = g.CumX2D
	}
	if x <= g.Knots[0] {
		return cum[0]
	}
	if x >= g.Knots[n-1] {
		return cum[n-1]
	}
	return g.momentXOnSegment(power, g.segment(x), x)
}

// cdfAt interpolates the CDF at x with Fritsch–Carlson-limited derivatives,
// which keeps the interpolant monotone within each panel — the property the
// percentile inversion leans on.
func (g *EvalGrid) cdfAt(x float64) float64 {
	n := len(g.Knots)
	if x <= g.Knots[0] {
		return g.CumD[0]
	}
	if x >= g.Knots[n-1] {
		return g.CumD[n-1]
	}
	return g.cdfOnSegment(g.segment(x), x)
}

// cdfOnSegment evaluates the monotone CDF interpolant on panel k.
func (g *EvalGrid) cdfOnSegment(k int, x float64) float64 {
	return fcHermiteCDF(g.Knots[k], g.Knots[k+1], g.CumD[k], g.CumD[k+1], g.DVal[k], g.DVal[k+1], x)
}

// fcHermiteCDF evaluates the cubic Hermite CDF interpolant on one panel
// with Fritsch–Carlson-limited derivatives — endpoint slopes clamped to
// [0, 3·secant], the sufficient condition for a monotone interpolant.
func fcHermiteCDF(x0, x1, c0, c1, dv0, dv1, x float64) float64 {
	h := x1 - x0
	if h <= 0 || c1 <= c0 {
		return c0
	}
	secant := (c1 - c0) / h
	d0 := math.Min(math.Max(dv0, 0), 3*secant)
	d1 := math.Min(math.Max(dv1, 0), 3*secant)
	return hermite(x0, x1, c0, c1, d0, d1, x)
}

// Mass returns ∫_lb^ub D from the cumulative-density table, clamping
// reversed bounds to zero mass like the closed-form CDF does.
func (g *EvalGrid) Mass(lb, ub float64) float64 {
	if ub <= lb {
		return 0
	}
	m := g.cdfAt(ub) - g.cdfAt(lb)
	if m < 0 {
		return 0
	}
	return m
}

// CDF returns the interpolated cumulative distribution at x.
func (g *EvalGrid) CDF(x float64) float64 { return g.cdfAt(x) }

// MomentX returns ∫_lb^ub x^power·D for power 1 or 2, given mass, the
// caller's ∫_lb^ub D over the same range: the tables hold the moments of
// u = x − C, and x = u + C adds the centre back.
func (g *EvalGrid) MomentX(power int, lb, ub, mass float64) float64 {
	m1 := g.momentXAt(1, ub) - g.momentXAt(1, lb)
	if power == 1 {
		return m1 + g.C*mass
	}
	return g.momentXAt(2, ub) - g.momentXAt(2, lb) + g.C*(2*m1+g.C*mass)
}

// Constituents returns how many per-constituent regression tables the grid
// carries.
func (g *EvalGrid) Constituents() int { return len(g.CumDR) }

// momentDRAt evaluates the ∫D·R_c^power prefix at x: the knot prefix of
// the containing panel plus the panel's linear-R contribution, expressed
// through the shared CDF and x-moment interpolants. Using the same cdfAt
// the Mass denominator uses keeps ratios of a constant prediction exact.
func (g *EvalGrid) momentDRAt(c, power int, x float64) float64 {
	n := len(g.Knots)
	cum := g.CumDR[c]
	if power == 2 {
		cum = g.CumDR2[c]
	}
	if x <= g.Knots[0] {
		return cum[0]
	}
	if x >= g.Knots[n-1] {
		return cum[n-1]
	}
	k := g.segment(x)
	a, b := g.RA[c][k], g.RB[c][k]
	dd := g.cdfOnSegment(k, x) - g.CumD[k]
	dxd := g.momentXOnSegment(1, k, x) - g.CumXD[k]
	if power == 1 {
		return cum[k] + a*dxd + b*dd
	}
	dx2d := g.momentXOnSegment(2, k, x) - g.CumX2D[k]
	return cum[k] + a*a*dx2d + 2*a*b*dxd + b*b*dd
}

// MomentDR returns ∫_lb^ub D·R_c^power for constituent c and power 1 or 2.
func (g *EvalGrid) MomentDR(c, power int, lb, ub float64) float64 {
	return g.momentDRAt(c, power, ub) - g.momentDRAt(c, power, lb)
}

// InvertCDF solves CDF(x) = p over the knot span: a binary search over the
// cumulative-density table finds the panel, then bisection on the monotone
// panel interpolant refines the root — O(log knots) cheap cubic
// evaluations, versus 200 O(bins) closed-form CDF sums for the bisection
// path it replaces.
func (g *EvalGrid) InvertCDF(p float64) float64 {
	n := len(g.Knots)
	if p <= g.CumD[0] {
		return g.Knots[0]
	}
	if p >= g.CumD[n-1] {
		return g.Knots[n-1]
	}
	// CumD is non-decreasing: find the first knot with CumD >= p.
	k := sort.Search(n, func(i int) bool { return g.CumD[i] >= p }) - 1
	if k < 0 {
		k = 0
	}
	if k > n-2 {
		k = n - 2
	}
	lo, hi := g.Knots[k], g.Knots[k+1]
	if g.CumD[k+1] <= g.CumD[k] {
		return lo // flat panel: any point matches
	}
	for i := 0; i < 64 && hi-lo > 1e-12*math.Max(1, math.Abs(hi)+math.Abs(lo)); i++ {
		mid := 0.5 * (lo + hi)
		if g.cdfOnSegment(k, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// breakpointer is the optional Regressor capability the grid builder uses
// to align panels with prediction discontinuities. A constituent that does
// not implement it (or whose breakpoints were thinned by maxGridKnots) is
// not necessarily linear within panels — validation then decides whether
// the grid still holds up or the pair is refused.
type breakpointer interface{ Breakpoints() []float64 }

// gridKnots places DefaultGridKnots base knots over the density support —
// half uniform (so sparse regions are still covered) and half at equal
// increments of binned mass (so panels shrink where D concentrates) — then
// merges the ensemble breakpoints in. Returns nil when the support is
// degenerate.
func gridKnots(d *kde.Binned, jumps []float64) []float64 {
	lo, hi := d.Support()
	if !(hi > lo) {
		return nil
	}
	n := DefaultGridKnots
	half := n / 2
	pts := make([]float64, 0, n+2)
	for i := 0; i <= half; i++ {
		pts = append(pts, lo+(hi-lo)*float64(i)/float64(half))
	}
	if w := d.Weights; len(w) > 1 {
		step := (d.Hi - d.Lo) / float64(len(w)-1)
		total := 0.0
		for _, wi := range w {
			total += wi
		}
		cum, k := 0.0, 1
		for i, wi := range w {
			if wi == 0 {
				continue
			}
			cum += wi
			for k <= half && cum >= total*float64(k)/float64(half+1) {
				if x := d.Lo + float64(i)*step; x > lo && x < hi {
					pts = append(pts, x)
				}
				k++
			}
		}
	}
	sort.Float64s(pts)
	// Dedupe the base knots with a minimum separation so panels never
	// collapse to float64-resolution slivers.
	minSep := (hi - lo) / float64(4*n)
	base := pts[:1]
	for _, x := range pts[1:] {
		if x-base[len(base)-1] >= minSep {
			base = append(base, x)
		}
	}
	if last := base[len(base)-1]; last < hi {
		if hi-last >= minSep {
			base = append(base, hi)
		} else {
			base[len(base)-1] = hi
		}
	}

	// Merge breakpoints. These must land exactly where the predictions
	// jump, so they are kept verbatim (deduped only at float resolution)
	// and base knots within tinySep of a jump yield to it.
	inRange := jumps[:0]
	for _, j := range jumps {
		if j > lo && j < hi {
			inRange = append(inRange, j)
		}
	}
	if budget := maxGridKnots - len(base); len(inRange) > budget {
		if budget <= 0 {
			inRange = nil
		} else {
			thin := make([]float64, 0, budget)
			for i := 0; i < budget; i++ {
				thin = append(thin, inRange[i*len(inRange)/budget])
			}
			inRange = thin
		}
	}
	tinySep := (hi - lo) * 1e-12
	out := make([]float64, 0, len(base)+len(inRange))
	bi, ji := 0, 0
	for bi < len(base) || ji < len(inRange) {
		var x float64
		if ji >= len(inRange) || (bi < len(base) && base[bi] <= inRange[ji]) {
			x = base[bi]
			bi++
			// A base knot almost on top of the next jump yields to it.
			if ji < len(inRange) && inRange[ji]-x < tinySep {
				continue
			}
		} else {
			x = inRange[ji]
			ji++
		}
		if len(out) > 0 && x-out[len(out)-1] < tinySep {
			continue
		}
		out = append(out, x)
	}
	if len(out) < 2 {
		return nil
	}
	// The endpoints must stay exactly at the support bounds.
	out[0], out[len(out)-1] = lo, hi
	return out
}

// refinedKnots is refineCDFKnots' result: the knot vector with the exact CDF
// and density tabulated at every knot — CumD carries no quadrature error —
// and what refinement already established about the panels between them.
type refinedKnots struct {
	knots, cumD, dVal []float64
	// midErr is the worst CDF midpoint error among the panels refinement
	// accepted. checked reports that it accepted every panel: validation
	// then starts from midErr instead of evaluating every midpoint again.
	// It is false when refinement stopped early — the round or knot cap, or
	// a panel too narrow to have a midpoint.
	midErr  float64
	checked bool
}

// refineCDFKnots splits panels whose Fritsch–Carlson CDF interpolant
// misses the closed-form CDF at the panel midpoint, until every midpoint
// agrees within gridErrBound or the knot cap is reached. Wide panels in
// density valleys and panels where the monotonicity clamp bites are
// exactly the ones that get refined. A panel's midpoint is evaluated once:
// an accepted panel is never looked at again, and a split costs the two
// children's checks in the next round. The closed-form evaluations of a
// round fan out over workers, each into its own slot, and every decision
// is taken afterwards in panel order, so the result does not depend on the
// schedule.
func refineCDFKnots(d *kde.Binned, kn []float64, workers int) refinedKnots {
	cd := make([]float64, len(kn))
	dv := make([]float64, len(kn))
	parallel.ForEach(len(kn), workers, func(i int) {
		cd[i] = d.CDF(kn[i])
		dv[i] = d.Density(kn[i])
	})
	scale := math.Max(cd[len(cd)-1]-cd[0], 1e-300)
	accepted := make([]bool, len(kn)-1) // per panel [kn[k], kn[k+1]]
	midErr := 0.0
	for round := 0; round < 24 && len(kn) < maxGridKnots; round++ {
		mid := func(k int) float64 { return 0.5 * (kn[k] + kn[k+1]) }
		var todo []int // panels to check this round
		for k, ok := range accepted {
			// A float-resolution panel has no midpoint to check or split at.
			if x := mid(k); !ok && x > kn[k] && x < kn[k+1] {
				todo = append(todo, k)
			}
		}
		want := make([]float64, len(todo))
		parallel.ForEach(len(todo), workers, func(j int) { want[j] = d.CDF(mid(todo[j])) })
		// The panels that miss, in order, with the new knot's CDF and density.
		type miss struct {
			k      int
			cd, dv float64
		}
		var split []miss
		for j, k := range todo {
			got := fcHermiteCDF(kn[k], kn[k+1], cd[k], cd[k+1], dv[k], dv[k+1], mid(k))
			rel := math.Abs(got-want[j]) / math.Max(math.Abs(want[j]), 1e-3*scale)
			if rel > 0.5*gridErrBound {
				split = append(split, miss{k: k, cd: want[j]})
				continue
			}
			accepted[k] = true
			midErr = math.Max(midErr, rel)
		}
		if len(split) == 0 {
			break
		}
		parallel.ForEach(len(split), workers, func(i int) { split[i].dv = d.Density(mid(split[i].k)) })

		n := len(kn) + len(split)
		nk, ncd, ndv := make([]float64, 0, n), make([]float64, 0, n), make([]float64, 0, n)
		nacc := make([]bool, 0, n-1)
		for k, i := 0, 0; k < len(kn); k++ {
			nk, ncd, ndv = append(nk, kn[k]), append(ncd, cd[k]), append(ndv, dv[k])
			if k == len(accepted) {
				break // the last knot closes the last panel
			}
			nacc = append(nacc, accepted[k])
			if i < len(split) && split[i].k == k {
				// Both halves of a split panel are new, unchecked panels.
				nk, ncd, ndv = append(nk, mid(k)), append(ncd, split[i].cd), append(ndv, split[i].dv)
				nacc = append(nacc, false)
				i++
			}
		}
		kn, cd, dv, accepted = nk, ncd, ndv, nacc
	}
	return refinedKnots{knots: kn, cumD: cd, dVal: dv, midErr: midErr, checked: !slices.Contains(accepted, false)}
}

// baseKnots places the model's knot vector before refinement: the base
// grid over the density support merged with every breakpoint of the
// ensemble's constituents. nil means the support is degenerate.
func (m *UniModel) baseKnots() []float64 {
	var jumps []float64
	for _, reg := range m.R.Models {
		if bp, ok := reg.(breakpointer); ok {
			jumps = append(jumps, bp.Breakpoints()...)
		}
	}
	sort.Float64s(jumps)
	return gridKnots(m.D, jumps)
}

// errNoGrid marks a model pair whose evaluation grid cannot be tabulated.
// Training refuses such a pair and a catalog holding one fails to load:
// there is no other kernel to serve it.
var errNoGrid = errors.New("no evaluation grid")

// buildGrid tabulates the model's prefix-integral grid and validates it. It
// fails with errNoGrid — naming the column, the support and the worst
// relative error validation met — when the support is degenerate or
// validation fails.
func buildGrid(m *UniModel, workers int) (*EvalGrid, error) {
	if m.D == nil || m.R == nil || len(m.R.Models) == 0 {
		return nil, fmt.Errorf("column %q: %w: the model has no density or regressor to tabulate", m.XCol, errNoGrid)
	}
	kn := m.baseKnots()
	if kn == nil {
		lo, hi := m.D.Support()
		return nil, fmt.Errorf("column %q: %w over support [%g, %g]: no room for knots at float64 resolution",
			m.XCol, errNoGrid, lo, hi)
	}
	return m.tabulateGrid(refineCDFKnots(m.D, kn, workers), workers)
}

// tabulateGrid fills the tables over refined knots and validates them.
func (m *UniModel) tabulateGrid(rk refinedKnots, workers int) (*EvalGrid, error) {
	nc := len(m.R.Models)
	kn, cumD, dVal := rk.knots, rk.cumD, rk.dVal
	nk := len(kn)
	panels := nk - 1
	centre := 0.5 * (kn[0] + kn[nk-1])

	// One fused Gauss–Kronrod pass per panel: the KDE density is the
	// dominant factor cost and all integrands share it. The D·R prefix
	// rows are not stored on the grid — their panel deltas are the
	// validation reference for the linear-R reconstruction below.
	pref := quadrature.CumulativeGK15(func(x float64, out []float64) {
		d := m.D.Density(x)
		u := x - centre
		out[0] = u * d
		out[1] = u * u * d
		for c := 0; c < nc; c++ {
			r := m.R.Models[c].Predict1(x)
			out[2+2*c] = d * r
			out[3+2*c] = d * r * r
		}
	}, 2+2*nc, kn, workers)

	g := &EvalGrid{
		Knots: kn, C: centre, CumXD: pref[0], CumX2D: pref[1],
		DVal: dVal, CumD: cumD,
		RA: make([][]float64, nc), RB: make([][]float64, nc),
		CumDR: make([][]float64, nc), CumDR2: make([][]float64, nc),
	}
	// Per-panel linear coefficients from two strictly interior samples:
	// exact for piecewise-constant trees (a = 0) and for the piecewise
	// linear constituent once panels align with their breakpoints.
	for c := 0; c < nc; c++ {
		g.RA[c] = make([]float64, panels)
		g.RB[c] = make([]float64, panels)
	}
	parallel.ForEach(panels, workers, func(k int) {
		x0, x1 := kn[k], kn[k+1]
		h := x1 - x0
		xa, xb := x0+h/3, x1-h/3
		for c := 0; c < nc; c++ {
			ra := m.R.Models[c].Predict1(xa)
			rb := m.R.Models[c].Predict1(xb)
			var a float64
			if xb > xa {
				a = (rb - ra) / (xb - xa)
			}
			g.RA[c][k] = a
			g.RB[c][k] = ra - a*(xa-centre)
		}
	})
	// Prefix regression integrals by the same identity the lookups use —
	// Δ∫D·R_c = a·Δ∫uD + b·ΔCDF per panel — so the prefix values and the
	// partial-panel interpolants are consistent by construction.
	for c := 0; c < nc; c++ {
		cdr := make([]float64, nk)
		cdr2 := make([]float64, nk)
		for k := 0; k < panels; k++ {
			a, b := g.RA[c][k], g.RB[c][k]
			dd := g.CumD[k+1] - g.CumD[k]
			dxd := g.CumXD[k+1] - g.CumXD[k]
			dx2d := g.CumX2D[k+1] - g.CumX2D[k]
			cdr[k+1] = cdr[k] + a*dxd + b*dd
			cdr2[k+1] = cdr2[k] + a*a*dx2d + 2*a*b*dxd + b*b*dd
		}
		g.CumDR[c] = cdr
		g.CumDR2[c] = cdr2
	}
	if worst, ok := m.validateGrid(g, pref, rk); !ok {
		lo, hi := g.Span()
		return nil, fmt.Errorf("column %q: %w over support [%g, %g]: worst relative error %.3g exceeds %g",
			m.XCol, errNoGrid, lo, hi, worst, gridErrBound)
	}
	return g, nil
}

// validateGrid checks the two places the grid could silently go wrong:
// the interpolated CDF against the closed-form CDF at panel midpoints, and
// the per-panel linear-R reconstruction of every ∫D·R_c panel against the
// fused Gauss–Kronrod panel integrals (deltas of pref rows 2+2c and 3+2c).
// A constituent that is not piecewise linear over the panels shows up
// here, and the pair is refused. The midpoint check is the one refinement
// runs — same interpolant, same closed form, same scale, at half this
// bound — so where rk says refinement accepted every panel its worst error
// stands in for the walk; otherwise every midpoint is evaluated here. It
// returns the worst error seen and whether the grid passed; a passing grid
// records the worst as MaxRelErr.
func (m *UniModel) validateGrid(g *EvalGrid, pref [][]float64, rk refinedKnots) (float64, bool) {
	nk := len(g.Knots)
	panels := nk - 1
	nc := len(g.RA)
	worst := 0.0
	// Scale floors: relative error against the full-support integral
	// magnitude, so empty-tail panels do not divide by ~0.
	massScale := math.Max(g.CumD[nk-1]-g.CumD[0], 1e-300)
	drScale := make([]float64, nc)
	dr2Scale := make([]float64, nc)
	for c := 0; c < nc; c++ {
		drScale[c] = math.Max(math.Abs(g.CumDR[c][nk-1]), 1e-300)
		dr2Scale[c] = math.Max(math.Abs(g.CumDR2[c][nk-1]), 1e-300)
	}
	// A NaN error counts as the worst there is, and fails.
	check := func(got, want, scale float64) bool {
		rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-3*scale)
		if !(rel <= worst) {
			worst = rel
		}
		return rel <= gridErrBound
	}
	if rk.checked {
		worst = rk.midErr
	} else {
		for k := 0; k < panels; k++ {
			mid := 0.5 * (g.Knots[k] + g.Knots[k+1])
			if !check(g.cdfAt(mid), m.D.CDF(mid), massScale) {
				return worst, false
			}
		}
	}
	for c := 0; c < nc; c++ {
		for k := 0; k < panels; k++ {
			a, b := g.RA[c][k], g.RB[c][k]
			dd := g.CumD[k+1] - g.CumD[k]
			dxd := pref[0][k+1] - pref[0][k]
			dx2d := pref[1][k+1] - pref[1][k]
			gk := pref[2+2*c][k+1] - pref[2+2*c][k]
			gk2 := pref[3+2*c][k+1] - pref[3+2*c][k]
			if !check(a*dxd+b*dd, gk, drScale[c]) {
				return worst, false
			}
			if !check(a*a*dx2d+2*a*b*dxd+b*b*dd, gk2, dr2Scale[c]) {
				return worst, false
			}
		}
	}
	g.MaxRelErr = worst
	return worst, true
}
