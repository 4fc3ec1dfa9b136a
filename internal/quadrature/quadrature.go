// Package quadrature implements adaptive numerical integration and root
// finding. It is a from-scratch replacement for the SciPy integrate module
// the paper relies on (§3, Integral Evaluation), which in turn wraps the
// Fortran QUADPACK library: the core routine here is an adaptive
// (G7, K15) Gauss–Kronrod scheme equivalent to QUADPACK's QAG, with
// per-interval error estimation and a worst-interval-first subdivision
// strategy. A bisection root finder (used by PERCENTILE, paper Eq. 4) and a
// tensor-product 2-D rule (used by multivariate predicates, Eq. 10) round
// out the package.
package quadrature

import (
	"errors"
	"math"

	"dbest/internal/parallel"
)

// Gauss–Kronrod (G7, K15) nodes and weights on [-1, 1]. The 15 Kronrod nodes
// interleave the 7 Gauss nodes; the difference between the two quadrature
// sums provides the error estimate, exactly as in QUADPACK.
var (
	kronrodNodes = [15]float64{
		-0.991455371120813, -0.949107912342759, -0.864864423359769,
		-0.741531185599394, -0.586087235467691, -0.405845151377397,
		-0.207784955007898, 0.0,
		0.207784955007898, 0.405845151377397, 0.586087235467691,
		0.741531185599394, 0.864864423359769, 0.949107912342759,
		0.991455371120813,
	}
	kronrodWeights = [15]float64{
		0.022935322010529, 0.063092092629979, 0.104790010322250,
		0.140653259715525, 0.169004726639267, 0.190350578064785,
		0.204432940075298, 0.209482141084728,
		0.204432940075298, 0.190350578064785, 0.169004726639267,
		0.140653259715525, 0.104790010322250, 0.063092092629979,
		0.022935322010529,
	}
	// gaussWeights[i] pairs with kronrodNodes[2i+1] (the embedded G7 rule).
	gaussWeights = [7]float64{
		0.129484966168870, 0.279705391489277, 0.381830050505119,
		0.417959183673469, 0.381830050505119, 0.279705391489277,
		0.129484966168870,
	}
)

// Options controls the adaptive integrator.
type Options struct {
	AbsTol        float64 // absolute error target (epsabs); default 1e-10
	RelTol        float64 // relative error target (epsrel); default 1e-8
	MaxIter       int     // maximum interval subdivisions; default 200
	InitialPanels int     // initial uniform partition; default 8
}

func (o *Options) withDefaults() Options {
	out := Options{AbsTol: 1e-10, RelTol: 1e-8, MaxIter: 200, InitialPanels: 8}
	if o == nil {
		return out
	}
	if o.AbsTol > 0 {
		out.AbsTol = o.AbsTol
	}
	if o.RelTol > 0 {
		out.RelTol = o.RelTol
	}
	if o.MaxIter > 0 {
		out.MaxIter = o.MaxIter
	}
	if o.InitialPanels > 0 {
		out.InitialPanels = o.InitialPanels
	}
	return out
}

// Result reports the value of an integral and its estimated absolute error.
type Result struct {
	Value    float64
	ErrEst   float64
	Evals    int // function evaluations performed
	Subdivs  int // interval subdivisions performed
	Converge bool
}

// ErrMaxIter is reported when the subdivision budget is exhausted before the
// error tolerances are met. The best available estimate is still returned.
var ErrMaxIter = errors.New("quadrature: maximum subdivisions reached")

type interval struct {
	a, b   float64
	value  float64
	errEst float64
}

// intervalHeap is a typed max-heap ordered by errEst (worst interval on
// top). It deliberately avoids container/heap: that interface boxes every
// Push/Pop operand into an interface{}, allocating once per subdivision on
// what is the hottest loop of every cold (uncached) model query.
type intervalHeap []interval

func (h *intervalHeap) push(it interval) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].errEst >= s[i].errEst {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *intervalHeap) pop() interval {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.siftDown(0)
	return top
}

func (h *intervalHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		worst := i
		if l := 2*i + 1; l < n && s[l].errEst > s[worst].errEst {
			worst = l
		}
		if r := 2*i + 2; r < n && s[r].errEst > s[worst].errEst {
			worst = r
		}
		if worst == i {
			return
		}
		s[i], s[worst] = s[worst], s[i]
		i = worst
	}
}

func (h *intervalHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// gk15 evaluates the (G7, K15) rule on [a, b], returning the Kronrod value
// and the QUADPACK-style error estimate.
func gk15(f func(float64) float64, a, b float64) (value, errEst float64) {
	c := 0.5 * (a + b)
	h := 0.5 * (b - a)
	var kron, gauss, resAbs, resAsc float64
	var fv [15]float64
	for i, x := range kronrodNodes {
		fx := f(c + h*x)
		fv[i] = fx
		kron += kronrodWeights[i] * fx
		resAbs += kronrodWeights[i] * math.Abs(fx)
	}
	for i := 0; i < 7; i++ {
		gauss += gaussWeights[i] * fv[2*i+1]
	}
	mean := 0.5 * kron
	for i := range fv {
		resAsc += kronrodWeights[i] * math.Abs(fv[i]-mean)
	}
	value = kron * h
	resAbs *= math.Abs(h)
	resAsc *= math.Abs(h)
	errEst = math.Abs((kron - gauss) * h)
	// QUADPACK error rescaling: sharpen the raw difference when it is small
	// relative to the function's variation.
	if resAsc != 0 && errEst != 0 {
		errEst = resAsc * math.Min(1, math.Pow(200*errEst/resAsc, 1.5))
	}
	const epmach = 2.220446049250313e-16
	if resAbs > math.SmallestNonzeroFloat64/(50*epmach) {
		errEst = math.Max(epmach*50*resAbs, errEst)
	}
	return value, errEst
}

// Integrate computes ∫_a^b f(x) dx with adaptive (G7, K15) Gauss–Kronrod
// subdivision. If b < a the sign convention of integrals is honored.
func Integrate(f func(float64) float64, a, b float64, opts *Options) (Result, error) {
	o := opts.withDefaults()
	if a == b {
		return Result{Converge: true}, nil
	}
	sign := 1.0
	if b < a {
		a, b = b, a
		sign = -1
	}

	// Seed the work heap with a uniform partition rather than one panel: a
	// density integrand whose mass is concentrated far from any node of a
	// single (G7, K15) panel would otherwise yield a zero error estimate and
	// never be refined.
	var res Result
	h := make(intervalHeap, 0, o.InitialPanels)
	step := (b - a) / float64(o.InitialPanels)
	for i := 0; i < o.InitialPanels; i++ {
		pa := a + float64(i)*step
		pb := pa + step
		if i == o.InitialPanels-1 {
			pb = b
		}
		v, e := gk15(f, pa, pb)
		res.Value += v
		res.ErrEst += e
		res.Evals += 15
		h = append(h, interval{pa, pb, v, e})
	}
	h.init()

	tol := func(total float64) float64 {
		return math.Max(o.AbsTol, o.RelTol*math.Abs(total))
	}
	for res.ErrEst > tol(res.Value) && res.Subdivs < o.MaxIter {
		worst := h.pop()
		mid := 0.5 * (worst.a + worst.b)
		if mid == worst.a || mid == worst.b {
			// Interval no longer splittable at float64 resolution.
			h.push(worst)
			break
		}
		lv, le := gk15(f, worst.a, mid)
		rv, re := gk15(f, mid, worst.b)
		res.Evals += 30
		res.Subdivs++
		res.Value += lv + rv - worst.value
		res.ErrEst += le + re - worst.errEst
		h.push(interval{worst.a, mid, lv, le})
		h.push(interval{mid, worst.b, rv, re})
	}
	res.Value *= sign
	if res.ErrEst <= tol(res.Value) {
		res.Converge = true
		return res, nil
	}
	return res, ErrMaxIter
}

// CumulativeGK15 is the builder primitive for prefix-integral evaluation
// grids: it integrates m integrands over every panel [knots[i], knots[i+1]]
// with a single (G7, K15) application per panel, panel-parallel across up to
// workers goroutines, and returns one prefix-sum table per integrand:
//
//	tables[j][i] = ∫_{knots[0]}^{knots[i]} f_j(x) dx
//
// The integrands are evaluated jointly — f fills out[0..m) at a point x —
// so integrands sharing an expensive common factor (a KDE density times
// several regressor constituents) pay for that factor once per node, not
// once per table. knots must be sorted ascending with at least two entries.
func CumulativeGK15(f func(x float64, out []float64), m int, knots []float64, workers int) [][]float64 {
	panels := len(knots) - 1
	if panels < 1 || m < 1 {
		return nil
	}
	// One flat panel×integrand scratch array keeps per-panel writes disjoint
	// across workers without any locking.
	flat := make([]float64, panels*m)
	parallel.ForEach(panels, workers, func(i int) {
		a, b := knots[i], knots[i+1]
		c := 0.5 * (a + b)
		hw := 0.5 * (b - a)
		acc := flat[i*m : (i+1)*m]
		out := make([]float64, m)
		for k, xn := range kronrodNodes {
			f(c+hw*xn, out)
			w := kronrodWeights[k]
			for j := 0; j < m; j++ {
				acc[j] += w * out[j]
			}
		}
		for j := 0; j < m; j++ {
			acc[j] *= hw
		}
	})
	tables := make([][]float64, m)
	for j := 0; j < m; j++ {
		t := make([]float64, len(knots))
		for i := 0; i < panels; i++ {
			t[i+1] = t[i] + flat[i*m+j]
		}
		tables[j] = t
	}
	return tables
}

// Integrate2D computes the double integral of f over [ax,bx] × [ay,by] using
// a tensor product of the (G7, K15) rule with adaptive refinement on the
// outer variable. This serves the multivariate aggregates of Eq. 10.
//
//lint:deadexport test oracle: the multivariate KDE's box masses are checked against it
func Integrate2D(f func(x, y float64) float64, ax, bx, ay, by float64, opts *Options) (Result, error) {
	inner := func(x float64) float64 {
		r, _ := Integrate(func(y float64) float64 { return f(x, y) }, ay, by, opts)
		return r.Value
	}
	return Integrate(inner, ax, bx, opts)
}

// FixedTensor2D computes the double integral of f over [ax,bx] × [ay,by]
// with a non-adaptive tensor product of K15 panels (panels × panels grid).
// It trades the adaptive rule's error control for a bounded, predictable
// evaluation count — (15·panels)² — which is what the multivariate
// aggregates need when each integrand evaluation costs a full KDE sum.
func FixedTensor2D(f func(x, y float64) float64, ax, bx, ay, by float64, panels int) float64 {
	if panels < 1 {
		panels = 1
	}
	// Precompute the flattened node/weight grids per axis.
	nx := make([]float64, 0, 15*panels)
	wx := make([]float64, 0, 15*panels)
	ny := make([]float64, 0, 15*panels)
	wy := make([]float64, 0, 15*panels)
	fill := func(a, b float64, nodes, weights *[]float64) {
		step := (b - a) / float64(panels)
		for p := 0; p < panels; p++ {
			c := a + (float64(p)+0.5)*step
			h := 0.5 * step
			for i, x := range kronrodNodes {
				*nodes = append(*nodes, c+h*x)
				*weights = append(*weights, kronrodWeights[i]*h)
			}
		}
	}
	fill(ax, bx, &nx, &wx)
	fill(ay, by, &ny, &wy)
	sum := 0.0
	for i, xv := range nx {
		inner := 0.0
		for j, yv := range ny {
			inner += wy[j] * f(xv, yv)
		}
		sum += wx[i] * inner
	}
	return sum
}

// Simpson computes ∫_a^b f with composite Simpson's rule on n panels
// (n rounded up to even). It is the simple fallback integrator and a test
// oracle for the adaptive rule.
//
//lint:deadexport test oracle for the adaptive rule and the grid tables
func Simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// Bisect finds a root of f in [a, b] by bisection — the "Naive Bisection
// method" the paper uses for PERCENTILE (Eq. 4). f(a) and f(b) must bracket
// a sign change. tol is the interval-width tolerance.
//
//lint:deadexport test oracle: the paper's PERCENTILE by bisection over the closed-form CDF, which the grid's CDF inversion is checked against
func Bisect(f func(float64) float64, a, b, tol float64, maxIter int) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, errors.New("bisect: no sign change in [a, b]")
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	for i := 0; i < maxIter; i++ {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol {
			return m, nil
		}
		if (fm > 0) == (fa > 0) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b), nil
}
