package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dbest/internal/exact"
	"dbest/internal/sample"
	"dbest/internal/table"
)

// Nominal categorical support (paper §2.3, "Supporting Categorical
// Attributes"): for nominal attributes "there is no simple way to transfer
// the values to meaningful numbers", so DBEst keeps one (D, R) model pair
// per nominal value, exactly like its GROUP BY treatment, and answers
// queries of the form
//
//	SELECT AF(y) FROM t WHERE z = 'value' AND x BETWEEN lb AND ub
//
// from the model trained on that value's rows.

// TrainNominalContext builds a ModelSet holding one model pair (xcol → ycol)
// per distinct value of the String column nominalBy. cfg.SampleSize applies
// per value; values whose sample is below cfg.MinGroupModel keep raw tuples.
// A canceled ctx aborts between per-value model fits and returns the
// context's error.
func TrainNominalContext(ctx context.Context, tb *table.Table, xcol, ycol, nominalBy string, cfg *TrainConfig) (*ModelSet, error) {
	c := cfg.withDefaults()
	if tb.NumRows() == 0 {
		return nil, fmt.Errorf("core: table %s is empty", tb.Name)
	}
	for _, col := range []string{xcol, ycol} {
		if !tb.HasColumn(col) {
			return nil, fmt.Errorf("core: table %s has no column %q", tb.Name, col)
		}
	}
	ms := &ModelSet{
		Table: tb.Name, XCols: []string{xcol}, YCol: ycol,
		NominalBy: nominalBy, N: float64(tb.NumRows()) * c.Scale,
	}
	t0 := time.Now()
	groups, counts, err := sample.ByNominal(tb, nominalBy, c.SampleSize, c.Seed)
	if err != nil {
		return nil, err
	}
	type vsample struct {
		v      string
		xs, ys []float64
	}
	var vss []vsample
	for v, idx := range groups {
		xs, ys, err := gatherPair(tb, xcol, ycol, idx)
		if err != nil {
			return nil, err
		}
		vss = append(vss, vsample{v, xs, ys})
		ms.Stats.SampleRows += len(idx)
	}
	// Map iteration order is random and the per-value seeds below follow
	// vss order: fix it (most populous value first) so the same seed trains
	// the same models.
	sort.Slice(vss, func(i, j int) bool {
		if ci, cj := counts[vss[i].v], counts[vss[j].v]; ci != cj {
			return ci > cj
		}
		return vss[i].v < vss[j].v
	})
	ms.Stats.SampleTime = time.Since(t0)

	t1 := time.Now()
	ms.Nominal = make(map[string]*UniModel, len(vss))
	ms.NominalRows = make(map[string]float64, len(vss))
	ms.NominalRaw = make(map[string]*RawGroup)
	for i, vs := range vss {
		ms.NominalRows[vs.v] = float64(counts[vs.v]) * c.Scale
		if len(vs.xs) < c.MinGroupModel {
			ms.NominalRaw[vs.v] = &RawGroup{X: vs.xs, Y: vs.ys}
			continue
		}
		vcfg := c
		vcfg.Seed = c.Seed + int64(i)
		m, st, err := trainPair(ctx, xcol, ycol, vs.xs, vs.ys, ms.NominalRows[vs.v], vcfg)
		if err != nil {
			return nil, fmt.Errorf("nominal value %q: %w", vs.v, err)
		}
		ms.Stats.stages.Add(st)
		ms.Nominal[vs.v] = m
	}
	ms.Stats.TrainTime = time.Since(t1)
	ms.Stats.ModelBytes = ms.SizeBytes()
	return ms, nil
}

// EvaluateNominal answers AF over rows with nominalBy = value and the range
// [lb, ub] on the model set's x column.
func (ms *ModelSet) EvaluateNominal(af exact.AggFunc, value string, lb, ub float64, yIsX bool, opts *EvalOptions) (*Answer, error) {
	var o EvalOptions
	if opts != nil {
		o = *opts
	}
	if m, ok := ms.Nominal[value]; ok {
		return m.answer(af, lb, ub, yIsX, o.P)
	}
	if rg, ok := ms.NominalRaw[value]; ok {
		v, err := rg.aggregate(af, lb, ub, yIsX, o.P, ms.NominalRows[value])
		if err != nil {
			return nil, err
		}
		return &Answer{Value: v}, nil
	}
	return nil, fmt.Errorf("core: no model for nominal value %q of %s", value, ms.NominalBy)
}
