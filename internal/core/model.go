// Package core implements the paper's primary contribution: the DBEst
// model pair — a kernel density estimator D(x) and a regression model R(x)
// trained over a small uniform sample — and the evaluation of aggregate
// functions from those models alone (paper §2.3, Eqs. 1–10). No base data
// or samples are consulted at query time; samples are discarded after
// training (§3, Sampling). The integrals the paper evaluates at query time
// (§3, Integral Evaluation) are tabulated at train time instead: a
// univariate model answers every aggregate from its evaluation grid
// (grid.go) and never reads D or R while serving.
package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"dbest/internal/boost"
	"dbest/internal/exact"
	"dbest/internal/kde"
	"dbest/internal/shard"
)

func init() {
	// The ensemble regressor holds its constituents behind the
	// boost.Regressor interface; gob needs the concrete types registered
	// for model serialization (catalog persistence and model bundles).
	gob.Register(&boost.GradientBoost{})
	gob.Register(&boost.XGBoost{})
	gob.Register(&boost.PiecewiseLinear{})
	gob.Register(&boost.Ensemble{})
}

// ErrNoSupport is returned when a range predicate selects a region where
// the density estimator has (almost) no mass, so regression-based
// aggregates are undefined — the analogue of an empty selection.
var ErrNoSupport = errors.New("core: predicate range has no density support")

// UniModel is the model pair for one column pair (x, y): the trained
// density estimator over x and regression model x → y, plus the logical
// table cardinality N the sample represented. This is the only state DBEst
// keeps per column pair (Table 1 of the paper: D(x), R(x), N), plus the
// evaluation grid tabulated from D and R that serves every query.
type UniModel struct {
	XCol, YCol string
	N          float64 // logical number of rows modeled (scales Eq. 1 and 7)
	D          *kde.Binned
	R          *boost.Ensemble
	XLo, XHi   float64 // observed x-domain of the training sample

	// Grid is the train-time prefix-integral table set that answers range
	// integrals in O(log knots). Every published model carries a valid one:
	// training refuses a pair it cannot tabulate, and a catalog model saved
	// without one gets it rebuilt at load (ModelSet.EnsureGrids).
	Grid *EvalGrid

	// EB is the train-time error predictor: bootstrap-fitted per-family
	// relative-error coefficients plus the regression residual floor. nil
	// on models from old catalogs or samples too small to bootstrap; such
	// models answer without bounds (PredictRelErr reports 0 = unknown).
	EB *ErrBounds
}

// HasGrid reports whether the model carries an evaluation grid whose tables
// fit its regressor — what a model needs to be served.
func (m *UniModel) HasGrid() bool {
	return m.Grid.Valid() && m.R != nil && m.Grid.Constituents() == len(m.R.Models)
}

// PredictRelErr predicts the relative error of aggregate af evaluated over
// [lb, ub] on this model, from the train-time error predictor at the
// range's selected mass fraction — the same mass eval hands the predictor
// when it stamps an answer. 0 means unknown: the model carries no fitted
// bounds (old catalogs, tiny samples).
func (m *UniModel) PredictRelErr(af exact.AggFunc, lb, ub float64) float64 {
	if !m.EB.Valid() {
		return 0
	}
	return m.EB.RelErr(af, m.mass(m.clip(lb, ub)))
}

// mass returns ∫_lb^ub D — the only density mass the serving path reads —
// from the grid's cumulative-density table, so COUNT, every denominator,
// shard partials and the error predictor share one kernel.
func (m *UniModel) mass(lb, ub float64) float64 { return m.Grid.Mass(lb, ub) }

// clip narrows [lb, ub] to the grid's knot span, which is the density
// support.
func (m *UniModel) clip(lb, ub float64) (float64, float64) {
	slo, shi := m.Grid.Span()
	if lb < slo {
		lb = slo
	}
	if ub > shi {
		ub = shi
	}
	return lb, ub
}

// Count evaluates Eq. 1: COUNT ≈ N · ∫ D(x) dx.
func (m *UniModel) Count(lb, ub float64) float64 {
	return m.N * m.mass(m.clip(lb, ub))
}

// moment computes the integrand family one aggregate needs over clipped
// bounds of mass f: ∫ x^power·D when yIsX (the density-based forms, Eqs.
// 2/3, where the aggregated column is the predicate column itself), else
// ∫ D·R^power.
func (m *UniModel) moment(yIsX bool, power int, lb, ub, f float64) float64 {
	if yIsX {
		gridHits.Add(1)
		return m.Grid.MomentX(power, lb, ub, f)
	}
	return m.integrateDR(lb, ub, power)
}

// quantile solves F(x) = F(lb) + p·den within the clipped range [lb, ub]
// of mass den (Eq. 4) by inverting the grid's cumulative-density table.
func (m *UniModel) quantile(p, lb, ub, den float64) float64 {
	gridHits.Add(1)
	g := m.Grid
	x := g.InvertCDF(g.CDF(lb) + p*den)
	return math.Min(math.Max(x, lb), ub)
}

// integrateDR computes ∫ D(x)·R(x)^power dx over [lb, ub] from the tables
// of the constituent the ensemble selects for this range, so one model
// answers the whole integral, as the paper's per-range selection asks.
func (m *UniModel) integrateDR(lb, ub float64, power int) float64 {
	gridHits.Add(1)
	return m.Grid.MomentDR(m.R.IndexForRange(lb, ub), power, lb, ub)
}

// Partial computes this model's shard-mergeable partial aggregates over
// [lb, ub]: the estimated selected-row count and, when requested, the
// first two moments of the aggregated column over the selection. The
// triples merge exactly across shards (internal/shard): COUNT and SUM add,
// AVG is the count-weighted mean, VARIANCE/STDDEV recombine through
// E[y²] − E[y]². yIsX selects the density-based moments (Eqs. 2/3). f is
// the selected mass fraction the partial was computed from, for the merged
// error bound. A range with no density support returns a zero Partial with
// Support false: one empty shard must not fail a merge its siblings can
// answer.
func (m *UniModel) Partial(lb, ub float64, yIsX, needSum, needSq bool) (p shard.Partial, f float64) {
	lb, ub = m.clip(lb, ub)
	f = m.mass(lb, ub)
	if f < 1e-12 {
		return p, f
	}
	p.Support = true
	p.Count = m.N * f
	if needSum {
		p.Sum = m.N * m.moment(yIsX, 1, lb, ub, f)
	}
	if needSq {
		p.SumSq = m.N * m.moment(yIsX, 2, lb, ub, f)
	}
	return p, f
}

// Aggregate dispatches an aggregate-function evaluation on this model.
// yIsX selects the density-based forms of AVG/VARIANCE/STDDEV (Eqs. 2/3),
// used when the aggregated column is the predicate column itself.
func (m *UniModel) Aggregate(af exact.AggFunc, lb, ub float64, yIsX bool, p float64) (float64, error) {
	v, _, err := m.eval(af, lb, ub, yIsX, p)
	return v, err
}

// eval is the evaluation kernel behind every aggregate (Eqs. 1–9): it clips
// the range, reads the selected mass f = ∫D once, and derives the answer
// from f and the moment integrals. f is returned alongside the value so the
// error-bound stamp reuses it instead of integrating the density again.
func (m *UniModel) eval(af exact.AggFunc, lb, ub float64, yIsX bool, p float64) (v, f float64, err error) {
	if af == exact.Percentile && (p < 0 || p > 1) {
		return 0, 0, fmt.Errorf("core: percentile point %v outside [0, 1]", p)
	}
	lb, ub = m.clip(lb, ub)
	f = m.mass(lb, ub)
	if af == exact.Count { // Eq. 1
		return m.N * f, f, nil
	}
	if f < 1e-12 {
		if af == exact.Sum {
			return 0, f, nil // no rows selected: SUM is 0, like SQL over empty sets
		}
		return 0, f, ErrNoSupport
	}
	switch af {
	case exact.Sum: // Eq. 7; R was fitted on the aggregated column even when it is x
		v = m.integrateDR(lb, ub, 1) * m.N
	case exact.Avg: // Eq. 6, or E[x] under D restricted
		v = m.moment(yIsX, 1, lb, ub, f) / f
	case exact.Variance, exact.StdDev: // Eqs. 2/8, 3/9
		if v = m.variance(yIsX, lb, ub, f); af == exact.StdDev {
			v = math.Sqrt(v)
		}
	case exact.Percentile: // Eq. 4
		v = m.quantile(p, lb, ub, f)
	default:
		return 0, f, fmt.Errorf("core: unsupported aggregate %v", af)
	}
	return v, f, nil
}

// variance evaluates E[y²] − E[y]² under the density restricted to the
// clipped range [lb, ub] of mass f.
func (m *UniModel) variance(yIsX bool, lb, ub, f float64) float64 {
	ex := m.moment(yIsX, 1, lb, ub, f) / f
	return math.Max(m.moment(yIsX, 2, lb, ub, f)/f-ex*ex, 0)
}
