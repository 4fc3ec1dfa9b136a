package dbest

import (
	"fmt"
	"math"
	"strings"

	"dbest/internal/core"
	"dbest/internal/exact"
)

// This file implements the paper's qualitative contributions (§1): beyond
// AQP, the trained models support (i) imputing missing attribute values,
// (ii) estimating a dependent variable for missing or hypothesized
// independent values, (iv) quickly discovering relationships between
// attributes, and (v) quickly visualizing descriptive statistics for the
// dependent attribute in data subspaces — all without touching base data.

// findUni locates a univariate, ungrouped model set for (tbl, xcol → ycol).
func (e *Engine) findUni(tbl, xcol, ycol string) (*core.ModelSet, error) {
	ms := e.catalog.Lookup(tbl, []string{xcol}, ycol, "")
	if ms == nil || ms.Uni == nil {
		return nil, fmt.Errorf("dbest: no univariate model for %s(%s→%s); Train it first", tbl, xcol, ycol)
	}
	return ms, nil
}

// Impute estimates the value of ycol for a row whose xcol value is known
// (or hypothesized) to be x — the regression model's point prediction.
// This is the paper's missing-value imputation / what-if primitive.
func (e *Engine) Impute(tbl, xcol, ycol string, x float64) (float64, error) {
	ms, err := e.findUni(tbl, xcol, ycol)
	if err != nil {
		return 0, err
	}
	return ms.Uni.R.Predict1(x), nil
}

// CurvePoint is one sample of the fitted relationship: the density of x and
// the regression estimate of y at x.
type CurvePoint struct {
	X       float64
	Density float64
	YHat    float64
}

// Curve samples the model pair on a uniform grid over the observed x
// domain — the raw material for "quickly visualizing descriptive
// statistics ... in data subspaces".
func (e *Engine) Curve(tbl, xcol, ycol string, points int) ([]CurvePoint, error) {
	ms, err := e.findUni(tbl, xcol, ycol)
	if err != nil {
		return nil, err
	}
	if points < 2 {
		points = 32
	}
	m := ms.Uni
	out := make([]CurvePoint, points)
	for i := 0; i < points; i++ {
		x := m.XLo + (m.XHi-m.XLo)*float64(i)/float64(points-1)
		out[i] = CurvePoint{X: x, Density: m.D.Density(x), YHat: m.R.Predict1(x)}
	}
	return out, nil
}

// Relationship summarizes the model-derived association between xcol and
// ycol: the density-weighted correlation between x and the conditional mean
// R(x), the direction, and the fraction of the y-variation the trend
// explains across the domain.
type Relationship struct {
	XCol, YCol string
	// Correlation of x and R(x) under the density D — a model-based analog
	// of Pearson correlation between x and y's systematic component.
	Correlation float64
	// Direction is "increasing", "decreasing", or "mixed" from the sign of
	// the trend over the central 90% of the density mass.
	Direction string
	// YRange is the spread of the conditional mean across the domain,
	// useful to judge practical significance.
	YMin, YMax float64
}

// DiscoverRelationship computes a Relationship report from the models only.
func (e *Engine) DiscoverRelationship(tbl, xcol, ycol string) (*Relationship, error) {
	ms, err := e.findUni(tbl, xcol, ycol)
	if err != nil {
		return nil, err
	}
	m := ms.Uni
	// Work on the central mass to avoid kernel-tail artifacts.
	lo := m.D.Quantile(0.05)
	hi := m.D.Quantile(0.95)
	const grid = 256
	var wSum, xMean, yMean float64
	xs := make([]float64, grid)
	ys := make([]float64, grid)
	ws := make([]float64, grid)
	for i := 0; i < grid; i++ {
		x := lo + (hi-lo)*float64(i)/float64(grid-1)
		w := m.D.Density(x)
		y := m.R.Predict1(x)
		xs[i], ys[i], ws[i] = x, y, w
		wSum += w
		xMean += w * x
		yMean += w * y
	}
	if wSum == 0 {
		return nil, fmt.Errorf("dbest: density has no mass on [%v, %v]", lo, hi)
	}
	xMean /= wSum
	yMean /= wSum
	var cxy, cxx, cyy float64
	for i := range xs {
		dx := xs[i] - xMean
		dy := ys[i] - yMean
		cxy += ws[i] * dx * dy
		cxx += ws[i] * dx * dx
		cyy += ws[i] * dy * dy
	}
	rel := &Relationship{XCol: xcol, YCol: ycol}
	if cxx > 0 && cyy > 0 {
		rel.Correlation = cxy / math.Sqrt(cxx*cyy)
	}
	ups, downs := 0, 0
	rel.YMin, rel.YMax = math.Inf(1), math.Inf(-1)
	for i := range ys {
		if ys[i] < rel.YMin {
			rel.YMin = ys[i]
		}
		if ys[i] > rel.YMax {
			rel.YMax = ys[i]
		}
		if i > 0 {
			switch {
			case ys[i] > ys[i-1]:
				ups++
			case ys[i] < ys[i-1]:
				downs++
			}
		}
	}
	switch {
	case ups >= 9*downs:
		rel.Direction = "increasing"
	case downs >= 9*ups:
		rel.Direction = "decreasing"
	default:
		rel.Direction = "mixed"
	}
	return rel, nil
}

// Description holds the full descriptive-statistics panel for the dependent
// attribute over a data subspace, computed from the models (Eqs. 1–9).
type Description struct {
	XCol, YCol string
	Lb, Ub     float64
	Count      float64
	Avg        float64
	Sum        float64
	Variance   float64
	StdDev     float64
	// Quartiles of the x distribution conditioned on the range.
	XQ1, XMedian, XQ3 float64
}

// Describe computes the panel for y over x ∈ [lb, ub].
func (e *Engine) Describe(tbl, xcol, ycol string, lb, ub float64) (*Description, error) {
	ms, err := e.findUni(tbl, xcol, ycol)
	if err != nil {
		return nil, err
	}
	m := ms.Uni
	d := &Description{XCol: xcol, YCol: ycol, Lb: lb, Ub: ub}
	for _, q := range []struct {
		af  exact.AggFunc
		p   float64
		dst *float64
	}{
		{exact.Count, 0, &d.Count}, {exact.Avg, 0, &d.Avg}, {exact.Sum, 0, &d.Sum},
		{exact.Variance, 0, &d.Variance}, {exact.StdDev, 0, &d.StdDev},
		{exact.Percentile, 0.25, &d.XQ1}, {exact.Percentile, 0.5, &d.XMedian}, {exact.Percentile, 0.75, &d.XQ3},
	} {
		if *q.dst, err = m.Aggregate(q.af, lb, ub, false, q.p); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Sparkline renders values as a unicode sparkline — a terminal-friendly
// visualization for Curve output.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[i])
	}
	return b.String()
}
