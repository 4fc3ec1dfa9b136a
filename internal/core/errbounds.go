package core

import (
	"math"
	"math/rand"
	"sort"

	"dbest/internal/exact"
)

// Per-answer error bounds. A model answer is useless in production unless
// the caller knows how wrong it might be, so training fits a small error
// model alongside the (D, R) pair: a seeded bootstrap over the training
// sample measures, per aggregate family, how the relative half-width of a
// range aggregate scales with the selected mass fraction f, and the
// regression residuals contribute an analytic floor the bootstrap cannot
// see (systematic regressor bias is invisible to resampling). The fitted
// coefficients are a few float64s — they ride the gob bundle next to
// EvalGrid and cost two multiplies at query time.

const (
	// errBootstrapB is the number of bootstrap resamples. 32 keeps the
	// band estimate stable without noticeably extending training.
	errBootstrapB = 32
	// errSafety inflates the 95% bootstrap band: resampling measures
	// sampling variance only, while the served error also carries KDE and
	// regressor bias. Calibrated against the accuracy harness so true
	// values fall inside the reported CI on >= ~90% of spans.
	errSafety = 1.5
	// errMinRelErr / errMaxRelErr clamp predictions: no model answer is
	// ever promised better than 0.2% (KDE smoothing alone costs that), and
	// a prediction past 100% carries no more information than 100%.
	errMinRelErr = 0.002
	errMaxRelErr = 1.0
	// errMinSample is the smallest training sample worth bootstrapping;
	// below it the bands are noise and the model reports unknown bounds.
	errMinSample = 20
)

// ErrBounds is the per-model error predictor fitted at train time. The
// zero/nil value means "unknown" — models from catalogs persisted before
// error bounds existed decode with a nil ErrBounds and keep answering, just
// without a CI. Coefficients are per aggregate family: COUNT error follows
// binomial mass concentration (vanishing as f -> 1), the regression-backed
// families follow the 1/sqrt(f·n) law of a sample mean over the selection.
type ErrBounds struct {
	CountCoef float64 // COUNT: delta = CountCoef · sqrt((1-f)/f)
	SumCoef   float64 // SUM:   delta = SumCoef / sqrt(f)
	AvgCoef   float64 // AVG:   delta = AvgCoef / sqrt(f)
	VarCoef   float64 // VARIANCE: delta = VarCoef / sqrt(f); STDDEV halves it
	PctCoef   float64 // PERCENTILE: delta = PctCoef / sqrt(f)
	// ResidRel is the regression residual RMSE over the training sample
	// relative to the mean |y| — the analytic floor for the SUM/AVG
	// families, carrying the regressor bias the bootstrap cannot measure.
	ResidRel float64
	// SampleN is the training-sample size the bootstrap saw; it bounds the
	// smallest resolvable mass fraction to one sample row.
	SampleN int
}

// Valid reports whether the receiver carries a fitted predictor. Safe on a
// nil receiver, mirroring EvalGrid.
func (e *ErrBounds) Valid() bool { return e != nil && e.SampleN > 0 }

// RelErr predicts the relative error of aggregate family af over a range
// selecting mass fraction f of the model's density. Returns 0 when the
// predictor is absent or the family is not covered (the caller treats 0 as
// "unknown bounds").
func (e *ErrBounds) RelErr(af exact.AggFunc, f float64) float64 {
	if !e.Valid() {
		return 0
	}
	if f > 1 {
		f = 1
	}
	// One sample row is the smallest selection the bootstrap resolved.
	if fmin := 1.0 / float64(e.SampleN); f < fmin {
		f = fmin
	}
	var d float64
	switch af {
	case exact.Count:
		d = e.CountCoef * math.Sqrt((1-f)/f)
	case exact.Sum:
		d = e.SumCoef / math.Sqrt(f)
	case exact.Avg:
		d = e.AvgCoef / math.Sqrt(f)
	case exact.Variance:
		d = e.VarCoef / math.Sqrt(f)
	case exact.StdDev:
		// Var = Std², so d(Std)/Std ≈ d(Var)/(2·Var) to first order.
		d = e.VarCoef / (2 * math.Sqrt(f))
	case exact.Percentile:
		d = e.PctCoef / math.Sqrt(f)
	default:
		return 0
	}
	// Regression residuals floor the regression-backed families: however
	// small the sampling band, the fitted R(x) still misses each y by the
	// residual scale, and a fraction of that bias survives averaging.
	if af == exact.Sum || af == exact.Avg {
		if floor := e.ResidRel / math.Sqrt(f*float64(e.SampleN)); d < floor {
			d = floor
		}
	}
	return math.Min(math.Max(d, errMinRelErr), errMaxRelErr)
}

// buildErrBounds fits the error predictor over the training sample (xs,
// ys): errBootstrapB seeded resamples, probed at centered quantile windows
// of varying selectivity; each window/family pair yields one coefficient
// estimate via the family's scaling law, and the fit keeps the largest
// across windows (conservative — coverage beats tightness for a bound).
// predict is the already-fitted regressor, used for the residual floor; it
// may be nil. Returns nil for samples too small to bootstrap.
func buildErrBounds(xs, ys []float64, predict func(float64) float64, seed int64) *ErrBounds {
	n := len(xs)
	if n < errMinSample {
		return nil
	}
	// order sorts the sample rows by x and rank inverts it, so a window is a
	// contiguous rank interval and a resample's in-window median falls out of
	// a counting pass over that interval — no per-resample copy or sort.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	sx := make([]float64, n)
	rank := make([]int, n)
	for r, i := range order {
		sx[r] = xs[i]
		rank[i] = r
	}

	// Centered quantile windows at increasing target selectivity. The full
	// window is excluded: every family's error there is dominated by model
	// bias, not sampling, and COUNT's bootstrap variance is identically 0.
	// A window selects lo <= x <= hi, which is ranks [rlo, rhi).
	type window struct{ rlo, rhi int }
	var wins []window
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.5, 0.8} {
		lo := sx[int((0.5-frac/2)*float64(n-1))]
		hi := sx[int((0.5+frac/2)*float64(n-1))]
		if hi > lo {
			wins = append(wins, window{sort.SearchFloat64s(sx, lo),
				sort.Search(n, func(r int) bool { return sx[r] > hi })})
		}
	}
	if len(wins) == 0 {
		return nil
	}

	type moments struct {
		count, sum, sumSq float64
		med               float64 // in-window median x, for the percentile probe
	}
	boots := make([][]moments, len(wins))
	for w := range boots {
		boots[w] = make([]moments, errBootstrapB)
	}
	drawn := make([]int32, n) // per rank, how often this resample drew it
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	for b := 0; b < errBootstrapB; b++ {
		clear(drawn)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			r, y := rank[j], ys[j]
			drawn[r]++
			for w, win := range wins {
				if r < win.rlo || r >= win.rhi {
					continue
				}
				m := &boots[w][b]
				m.count++
				m.sum += y
				m.sumSq += y * y
			}
		}
		for w, win := range wins {
			// The median is element count/2 of the in-window draws in x
			// order: the first rank whose running draw count passes it.
			m := &boots[w][b]
			mid, seen := int(m.count)/2, 0
			for r := win.rlo; r < win.rhi; r++ {
				if seen += int(drawn[r]); seen > mid {
					m.med = sx[r]
					break
				}
			}
		}
	}

	eb := &ErrBounds{SampleN: n}
	for w := range wins {
		bs := boots[w]
		counts := make([]float64, 0, errBootstrapB)
		sums := make([]float64, 0, errBootstrapB)
		avgs := make([]float64, 0, errBootstrapB)
		vars := make([]float64, 0, errBootstrapB)
		meds := make([]float64, 0, errBootstrapB)
		for b := range bs {
			m := &bs[b]
			if m.count < 2 {
				continue
			}
			avg := m.sum / m.count
			v := m.sumSq/m.count - avg*avg
			if v < 0 {
				v = 0
			}
			counts = append(counts, m.count)
			sums = append(sums, m.sum)
			avgs = append(avgs, avg)
			vars = append(vars, v)
			meds = append(meds, m.med)
		}
		if len(counts) < errBootstrapB/2 {
			continue
		}
		f := mean(counts) / float64(n) // observed mass fraction of this window
		if f <= 0 || f >= 1 {
			continue
		}
		// Invert each family's scaling law at this window's f, keeping the
		// most conservative coefficient across windows.
		grow := func(coef *float64, rel, scale float64) {
			if scale <= 0 {
				return
			}
			if c := rel / scale; c > *coef {
				*coef = c
			}
		}
		grow(&eb.CountCoef, relHalfWidth(counts), math.Sqrt((1-f)/f))
		grow(&eb.SumCoef, relHalfWidth(sums), 1/math.Sqrt(f))
		grow(&eb.AvgCoef, relHalfWidth(avgs), 1/math.Sqrt(f))
		grow(&eb.VarCoef, relHalfWidth(vars), 1/math.Sqrt(f))
		grow(&eb.PctCoef, relHalfWidth(meds), 1/math.Sqrt(f))
	}
	if eb.CountCoef == 0 && eb.AvgCoef == 0 {
		return nil
	}
	eb.ResidRel = residRel(xs, ys, predict)
	return eb
}

// relHalfWidth is the safety-inflated 95% bootstrap band of vs, relative to
// the bootstrap mean: errSafety · 1.96 · std / |mean|. A near-zero mean
// (e.g. SUM of a signed column canceling) yields a huge relative band,
// which the clamp in RelErr caps at errMaxRelErr — honest: such answers
// really are unreliable in relative terms.
func relHalfWidth(vs []float64) float64 {
	m := mean(vs)
	var sq float64
	for _, v := range vs {
		d := v - m
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(vs)))
	den := math.Abs(m)
	if den < 1e-12 {
		return errMaxRelErr
	}
	return errSafety * 1.96 * std / den
}

func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// residRel is the regression residual RMSE over the training sample,
// relative to the mean |y|: how far each y sits from the fitted R(x), the
// per-row scatter that systematically limits SUM/AVG accuracy. With no
// predictor it falls back to the y spread around its mean, which upper-
// bounds the residual and keeps the floor conservative.
func residRel(xs, ys []float64, predict func(float64) float64) float64 {
	if predict == nil {
		my := mean(ys)
		predict = func(float64) float64 { return my }
	}
	var sq, ab float64
	for i, y := range ys {
		d := y - predict(xs[i])
		sq += d * d
		ab += math.Abs(y)
	}
	n := float64(len(ys))
	if ab < 1e-12 {
		return 0
	}
	return math.Sqrt(sq/n) / (ab / n)
}
