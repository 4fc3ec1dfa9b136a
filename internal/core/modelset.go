package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"dbest/internal/exact"
	"dbest/internal/parallel"
)

// GroupAnswer is one group's approximate answer in a GROUP BY result.
// CI/PredRelErr carry the group model's error bounds; both zero when the
// group answered from raw tuples or a model without a fitted predictor.
type GroupAnswer struct {
	Group      int64
	Value      float64
	CI         [2]float64
	PredRelErr float64
}

// Answer is the approximate result of one aggregate evaluation. CI is the
// value's confidence interval [lo, hi] and PredRelErr the predicted
// relative error, both from the model's train-time error predictor;
// PredRelErr == 0 means the bounds are unknown (models persisted before
// error bounds existed, tiny samples, multivariate models). For GROUP BY
// answers the scalar CI is empty; PredRelErr is the worst group's.
type Answer struct {
	Value      float64       // scalar result (no GROUP BY)
	Groups     []GroupAnswer // sorted by group value (GROUP BY)
	CI         [2]float64
	PredRelErr float64
}

// answer evaluates af on m over [lb, ub] and stamps the CI and predicted
// relative error from the mass fraction the evaluation itself computed.
// Answers from models without a fitted predictor keep zero bounds.
func (m *UniModel) answer(af exact.AggFunc, lb, ub float64, yIsX bool, p float64) (*Answer, error) {
	v, f, err := m.eval(af, lb, ub, yIsX, p)
	if err != nil {
		return nil, err
	}
	a := &Answer{Value: v}
	if re := m.EB.RelErr(af, f); re > 0 {
		a.PredRelErr = re
		h := math.Abs(v) * re
		a.CI = [2]float64{v - h, v + h}
	}
	return a, nil
}

// SortGroupAnswers orders a GROUP BY result by group value — the one
// ordering contract shared by the model and exact answer paths.
func SortGroupAnswers(gs []GroupAnswer) {
	sort.Slice(gs, func(i, j int) bool { return gs[i].Group < gs[j].Group })
}

// EvalOptions controls model-set evaluation.
type EvalOptions struct {
	Workers int     // parallel per-group model evaluation (0 = GOMAXPROCS, 1 = sequential)
	P       float64 // percentile point for PERCENTILE
}

// EvaluateUni answers AF over a univariate predicate [lb, ub] on the model
// set's x column. yIsX must be set when the aggregated column equals the
// predicate column (density-based VARIANCE/STDDEV/AVG, §2.3.1).
func (ms *ModelSet) EvaluateUni(af exact.AggFunc, lb, ub float64, yIsX bool, opts *EvalOptions) (*Answer, error) {
	var o EvalOptions
	if opts != nil {
		o = *opts
	}
	if ms.GroupBy != "" {
		return ms.evaluateGroups(af, lb, ub, yIsX, o)
	}
	if ms.Uni == nil {
		return nil, fmt.Errorf("core: model set %s has no univariate model", ms.Key())
	}
	return ms.Uni.answer(af, lb, ub, yIsX, o.P)
}

// EvaluateMulti answers AF over a multivariate box predicate.
func (ms *ModelSet) EvaluateMulti(af exact.AggFunc, lb, ub []float64) (*Answer, error) {
	if ms.Multi == nil {
		return nil, fmt.Errorf("core: model set %s has no multivariate model", ms.Key())
	}
	v, err := ms.Multi.Aggregate(af, lb, ub)
	if err != nil {
		return nil, err
	}
	return &Answer{Value: v}, nil
}

// maxGroupErrors caps how many failing groups a GROUP BY error reports;
// the rest are counted, not printed, so the fan-out of a pathological
// predicate over thousands of groups stays one bounded message.
const maxGroupErrors = 3

// evaluateGroups fans the evaluation out over all per-group models — the
// paper's GROUP BY strategy: "DBEst will call all models built for the z
// values, and the predictions from all models form the result" (§2.3).
// Model evaluation per group is embarrassingly parallel (§4.7.1).
//
// Failing groups are reported by group label, in ascending group order,
// capped at maxGroupErrors — deterministically, regardless of worker
// scheduling. A panicking group model (e.g. a corrupt deserialized bundle)
// is contained and reported as that group's failure instead of taking the
// whole process down.
func (ms *ModelSet) evaluateGroups(af exact.AggFunc, lb, ub float64, yIsX bool, o EvalOptions) (*Answer, error) {
	gvals := make([]int64, 0, len(ms.Groups)+len(ms.Raw))
	for g := range ms.Groups {
		gvals = append(gvals, g)
	}
	for g := range ms.Raw {
		gvals = append(gvals, g)
	}
	sort.Slice(gvals, func(i, j int) bool { return gvals[i] < gvals[j] })

	type res struct {
		ok  bool
		val float64
		re  float64 // predicted relative error; 0 = unknown
	}
	results := make([]res, len(gvals))
	errs := make([]error, len(gvals))
	parallel.ForEach(len(gvals), o.Workers, func(i int) {
		g := gvals[i]
		v, re, err := ms.evaluateGroup(g, af, lb, ub, yIsX, o.P)
		if err != nil {
			if err == ErrNoSupport {
				return // group empty under this predicate: omit, as SQL does
			}
			errs[i] = err
			return
		}
		results[i] = res{true, v, re}
	})
	if err := joinGroupErrors(gvals, errs); err != nil {
		return nil, err
	}
	ans := &Answer{}
	for i, g := range gvals {
		if !results[i].ok {
			continue
		}
		ga := GroupAnswer{Group: g, Value: results[i].val, PredRelErr: results[i].re}
		if ga.PredRelErr > 0 {
			h := math.Abs(ga.Value) * ga.PredRelErr
			ga.CI = [2]float64{ga.Value - h, ga.Value + h}
			// The answer-level prediction is the worst group's: a caller
			// routing on tolerance must hold every group to it.
			if ga.PredRelErr > ans.PredRelErr {
				ans.PredRelErr = ga.PredRelErr
			}
		}
		ans.Groups = append(ans.Groups, ga)
	}
	// gvals is sorted, so ans.Groups already satisfies the ordering
	// contract; keep the explicit sort as the single source of truth.
	SortGroupAnswers(ans.Groups)
	return ans, nil
}

// evaluateGroup answers one group, converting a panic in the group's model
// into an error so one bad group cannot crash a whole GROUP BY query. re is
// the group model's predicted relative error (0 = unknown; raw-tuple groups
// answer exactly from retained tuples and report 0 too).
func (ms *ModelSet) evaluateGroup(g int64, af exact.AggFunc, lb, ub float64, yIsX bool, p float64) (v, re float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic evaluating group model: %v", r)
		}
	}()
	if m, ok := ms.Groups[g]; ok {
		var f float64
		if v, f, err = m.eval(af, lb, ub, yIsX, p); err == nil {
			re = m.EB.RelErr(af, f)
		}
		return v, re, err
	}
	v, err = ms.Raw[g].aggregate(af, lb, ub, yIsX, p, ms.GroupRows[g])
	return v, 0, err
}

// joinGroupErrors folds per-group failures into one error labeled with the
// failing groups. gvals must be sorted; errs is indexed parallel to it.
func joinGroupErrors(gvals []int64, errs []error) error {
	failed := make([]int, 0, maxGroupErrors)
	nFailed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		nFailed++
		if len(failed) < maxGroupErrors {
			failed = append(failed, i)
		}
	}
	if nFailed == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d of %d groups failed: ", nFailed, len(gvals))
	wrapped := make([]error, 0, maxGroupErrors)
	for k, i := range failed {
		if k > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "group %d: %v", gvals[i], errs[i])
		wrapped = append(wrapped, errs[i])
	}
	if extra := nFailed - len(failed); extra > 0 {
		fmt.Fprintf(&b, "; and %d more", extra)
	}
	return &groupEvalError{msg: b.String(), errs: wrapped}
}

// groupEvalError carries the reported group failures so errors.Is/As still
// see the underlying causes through the capped summary message.
type groupEvalError struct {
	msg  string
	errs []error
}

func (e *groupEvalError) Error() string   { return e.msg }
func (e *groupEvalError) Unwrap() []error { return e.errs }

// aggregate answers AF exactly over the raw tuples of a small group,
// scaling COUNT/SUM by the group's logical-to-sample ratio.
func (rg *RawGroup) aggregate(af exact.AggFunc, lb, ub float64, yIsX bool, p, logicalRows float64) (float64, error) {
	var sel []float64
	for i, x := range rg.X {
		if x >= lb && x <= ub {
			if yIsX {
				sel = append(sel, x)
			} else {
				sel = append(sel, rg.Y[i])
			}
		}
	}
	if len(sel) == 0 {
		return 0, ErrNoSupport
	}
	scale := 1.0
	if len(rg.X) > 0 && logicalRows > 0 {
		scale = logicalRows / float64(len(rg.X))
	}
	switch af {
	case exact.Count:
		return float64(len(sel)) * scale, nil
	case exact.Sum:
		s := 0.0
		for _, v := range sel {
			s += v
		}
		return s * scale, nil
	case exact.Avg:
		s := 0.0
		for _, v := range sel {
			s += v
		}
		return s / float64(len(sel)), nil
	case exact.Variance, exact.StdDev:
		var s, ss float64
		for _, v := range sel {
			s += v
			ss += v * v
		}
		n := float64(len(sel))
		m := s / n
		v := ss/n - m*m
		if v < 0 {
			v = 0
		}
		if af == exact.StdDev {
			return math.Sqrt(v), nil
		}
		return v, nil
	case exact.Percentile:
		if p < 0 || p > 1 {
			return 0, fmt.Errorf("core: percentile point %v outside [0, 1]", p)
		}
		sorted := append([]float64(nil), sel...)
		sort.Float64s(sorted)
		pos := p * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
	default:
		return 0, fmt.Errorf("core: unsupported aggregate %v", af)
	}
}

// SizeBytes reports the gob-serialized size of the whole model set — the
// state DBEst must keep in memory (or spill to SSD as a bundle) for this
// column set.
func (ms *ModelSet) SizeBytes() int {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ms); err != nil {
		return 0
	}
	return buf.Len()
}

// EvalKernel reports which kernel answers this set's model-path integrals —
// the tag EXPLAIN renders on ModelEval and ShardMerge operators: "sketch"
// for sketch sets, "quad" for multivariate sets (tensor quadrature), and
// "grid" for every univariate set, each of whose models carries a grid.
func (ms *ModelSet) EvalKernel() string {
	switch {
	case ms.Sketch != nil:
		return "sketch"
	case ms.Multi != nil:
		return "quad"
	default:
		return "grid"
	}
}

// EnsureGrids gives every univariate model in the set a grid whose tables
// fit its regressor. Catalogs written with grids disabled decode without
// one; it is rebuilt here by the same deterministic build training runs, so
// the loaded model serves exactly what a retrain of its spec would. A model
// that cannot be tabulated fails the load with an error naming it.
func (ms *ModelSet) EnsureGrids() error {
	models := map[string]*UniModel{"": ms.Uni}
	for g, m := range ms.Groups {
		models[fmt.Sprintf(" group %d", g)] = m
	}
	for v, m := range ms.Nominal {
		models[fmt.Sprintf(" nominal value %q", v)] = m
	}
	for _, where := range slices.Sorted(maps.Keys(models)) {
		m := models[where]
		if m == nil || m.HasGrid() {
			continue
		}
		g, err := buildGrid(m, 0)
		if err != nil {
			return fmt.Errorf("core: model %s%s: %w", ms.Key(), where, err)
		}
		m.Grid = g
	}
	return nil
}

// NumModels counts the trained models in the set (per-group and
// per-nominal-value models count individually; raw groups are not models;
// a sketch counts as one).
func (ms *ModelSet) NumModels() int {
	n := 0
	if ms.Sketch != nil {
		n++
	}
	if ms.Uni != nil {
		n++
	}
	if ms.Multi != nil {
		n++
	}
	return n + len(ms.Groups) + len(ms.Nominal)
}
