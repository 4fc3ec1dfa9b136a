package boost

import (
	"errors"
	"math"
	"math/rand"

	"dbest/internal/tree"
)

// Ensemble combines constituent regressors (by default GBoost and
// XGBoost-style, per the paper) with a learned selector: after training each
// constituent, random range queries over the independent attribute's domain
// score the constituents' AVG-prediction accuracy, and a classification tree
// on (range centre, range width) learns which constituent to trust for a
// given range predicate. Point predictions route through the selector using
// a zero-width range at x.
type Ensemble struct {
	Models   []Regressor
	Selector *tree.Classifier // nil when a single model dominated everywhere
	Default  int              // fallback constituent index
}

// EnsembleOptions configures ensemble training.
type EnsembleOptions struct {
	Boost      *Options // shared booster options
	Queries    int      // evaluation range queries; default 60
	Seed       int64
	IncludePLR bool // also include the piecewise-linear constituent
}

// FitEnsemble trains the ensemble regressor on the univariate pairs (x, y).
func FitEnsemble(x, y []float64, opts *EnsembleOptions) (*Ensemble, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("boost: empty training set")
	}
	if len(y) != n {
		return nil, errors.New("boost: x and y length mismatch")
	}
	var o EnsembleOptions
	if opts != nil {
		o = *opts
	}
	if o.Queries <= 0 {
		o.Queries = 60
	}

	X := make([][]float64, n)
	for i := range x {
		X[i] = []float64{x[i]}
	}
	gb, err := FitGradientBoost(X, y, o.Boost)
	if err != nil {
		return nil, err
	}
	xb, err := FitXGBoost(X, y, o.Boost)
	if err != nil {
		return nil, err
	}
	models := []Regressor{gb, xb}
	if o.IncludePLR {
		pl, err := FitPiecewiseLinear(x, y, 0)
		if err != nil {
			return nil, err
		}
		models = append(models, pl)
	}

	// Evaluate constituents on random range queries: for each range, the
	// "true" answer is the mean of y over training points falling in range;
	// each constituent answers with the mean of its predictions over those
	// points. The winner label trains the selector. Per-point predictions
	// are computed once per model and reused across all evaluation queries.
	xs := sortedCopy(x)
	lo, hi := xs[0], xs[len(xs)-1]
	if hi == lo {
		return &Ensemble{Models: models, Default: 0}, nil
	}
	perModel := make([][]float64, len(models))
	for m, mod := range models {
		p := make([]float64, n)
		for i := range x {
			p[i] = mod.Predict1(x[i])
		}
		perModel[m] = p
	}
	rng := rand.New(rand.NewSource(o.Seed + 7))
	var feats [][]float64
	var labels []int
	wins := make([]int, len(models))
	errSums := make([]float64, len(models))
	for q := 0; q < o.Queries; q++ {
		width := (hi - lo) * (0.01 + 0.2*rng.Float64())
		start := lo + rng.Float64()*(hi-lo-width)
		end := start + width
		var truth, count float64
		preds := make([]float64, len(models))
		for i := range x {
			if x[i] >= start && x[i] <= end {
				truth += y[i]
				count++
				for m := range models {
					preds[m] += perModel[m][i]
				}
			}
		}
		if count < 3 {
			continue
		}
		truth /= count
		best, bestErr := 0, math.Inf(1)
		for m := range models {
			e := math.Abs(preds[m]/count - truth)
			errSums[m] += e
			if e < bestErr {
				best, bestErr = m, e
			}
		}
		wins[best]++
		feats = append(feats, []float64{(start + end) / 2, width})
		labels = append(labels, best)
	}

	def := 0
	for m := range errSums {
		if errSums[m] < errSums[def] {
			def = m
		}
	}
	ens := &Ensemble{Models: models, Default: def}
	// Only bother with a selector when no constituent wins everywhere.
	distinct := 0
	for _, w := range wins {
		if w > 0 {
			distinct++
		}
	}
	if distinct > 1 && len(feats) >= 10 {
		sel, err := tree.FitClassifier(feats, labels, len(models), &tree.ClsOptions{MaxDepth: 3})
		if err == nil {
			ens.Selector = sel
		}
	}
	return ens, nil
}

// selectFor picks the constituent for a range centred at c with width w.
func (e *Ensemble) selectFor(c, w float64) Regressor {
	return e.Models[e.indexFor(c, w)]
}

// indexFor resolves the constituent index for a range centred at c with
// width w.
func (e *Ensemble) indexFor(c, w float64) int {
	if e.Selector == nil {
		return e.Default
	}
	i := e.Selector.Predict([]float64{c, w})
	if i < 0 || i >= len(e.Models) {
		i = e.Default
	}
	return i
}

// IndexForRange returns the index into Models of the constituent ForRange
// would select for [lb, ub]. Precomputed evaluation grids key their
// per-constituent integral tables by this index, so grid lookups honor the
// same per-range selection the quadrature path uses.
func (e *Ensemble) IndexForRange(lb, ub float64) int {
	return e.indexFor((lb+ub)/2, ub-lb)
}

// ForRange returns the constituent regressor selected for [lb, ub], letting
// integrators hoist the selection out of the integrand.
func (e *Ensemble) ForRange(lb, ub float64) Regressor {
	return e.selectFor((lb+ub)/2, ub-lb)
}

// Predict implements Regressor via the selector with a zero-width range.
func (e *Ensemble) Predict(x []float64) float64 { return e.Predict1(x[0]) }

// Predict1 implements Regressor.
func (e *Ensemble) Predict1(x float64) float64 {
	return e.selectFor(x, 0).Predict1(x)
}

// Name implements Regressor.
func (e *Ensemble) Name() string { return "ensemble" }
