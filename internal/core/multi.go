package core

import (
	"fmt"

	"dbest/internal/boost"
	"dbest/internal/exact"
	"dbest/internal/kde"
	"dbest/internal/quadrature"
)

// MultiModel is the model pair for multivariate range predicates (paper
// §2.3, "Supporting Multivariate Selection Operators", Eq. 10): a
// d-dimensional product-kernel density estimator and a multivariate boosted
// regressor over the predicate columns.
type MultiModel struct {
	XCols []string
	YCol  string
	N     float64
	D     *kde.Multivariate
	R     *boost.GradientBoost
}

// Dim returns the number of predicate dimensions.
func (m *MultiModel) Dim() int { return len(m.XCols) }

// Count evaluates the multivariate Eq. 1: N × box mass (closed form for the
// Gaussian product kernel — no quadrature in any dimension).
func (m *MultiModel) Count(lb, ub []float64) (float64, error) {
	if len(lb) != m.Dim() || len(ub) != m.Dim() {
		return 0, fmt.Errorf("core: predicate dimension mismatch: got %d, model has %d", len(lb), m.Dim())
	}
	return m.N * m.D.Mass(lb, ub), nil
}

// Avg evaluates Eq. 10: ∫∫ D·R / ∫∫ D over the box. Tensor-product
// quadrature is implemented for d = 2 (the paper's example); COUNT works in
// any dimension.
func (m *MultiModel) Avg(lb, ub []float64) (float64, error) {
	num, den, err := m.integrals(lb, ub)
	if err != nil {
		return 0, err
	}
	if den < 1e-12 {
		return 0, ErrNoSupport
	}
	return num / den, nil
}

// Sum evaluates the multivariate Eq. 7: N · ∫∫ D·R.
func (m *MultiModel) Sum(lb, ub []float64) (float64, error) {
	num, den, err := m.integrals(lb, ub)
	if err != nil {
		return 0, err
	}
	if den < 1e-12 {
		return 0, nil
	}
	return m.N * num, nil
}

func (m *MultiModel) integrals(lb, ub []float64) (num, den float64, err error) {
	if len(lb) != m.Dim() || len(ub) != m.Dim() {
		return 0, 0, fmt.Errorf("core: predicate dimension mismatch: got %d, model has %d", len(lb), m.Dim())
	}
	if m.Dim() != 2 {
		return 0, 0, fmt.Errorf("core: regression-based multivariate aggregates support 2 dimensions, model has %d", m.Dim())
	}
	// Clip to support per dimension.
	slo, shi := m.D.Support()
	a0, b0 := maxf(lb[0], slo[0]), minf(ub[0], shi[0])
	a1, b1 := maxf(lb[1], slo[1]), minf(ub[1], shi[1])
	if b0 <= a0 || b1 <= a1 {
		return 0, 0, nil
	}
	den = m.D.Mass([]float64{a0, a1}, []float64{b0, b1})
	// A fixed (K15)² tensor rule bounds the quadrature cost: each integrand
	// evaluation is a full KDE sum, so the adaptive nested rule would cost
	// minutes where this costs milliseconds, at accuracy well below model
	// error (the integrand is a smooth product of Gaussians and a bounded
	// step function).
	gridFallbacks.Add(1)
	pt := make([]float64, 2)
	num = quadrature.FixedTensor2D(func(x, y float64) float64 {
		pt[0], pt[1] = x, y
		return m.D.Density(pt) * m.R.Predict(pt)
	}, a0, b0, a1, b1, 2)
	return num, den, nil
}

// Aggregate dispatches the supported multivariate aggregates.
func (m *MultiModel) Aggregate(af exact.AggFunc, lb, ub []float64) (float64, error) {
	switch af {
	case exact.Count:
		return m.Count(lb, ub)
	case exact.Avg:
		return m.Avg(lb, ub)
	case exact.Sum:
		return m.Sum(lb, ub)
	default:
		return 0, fmt.Errorf("core: aggregate %v not supported with multivariate predicates", af)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
