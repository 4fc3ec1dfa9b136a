package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dbest/internal/boost"
	"dbest/internal/kde"
	"dbest/internal/parallel"
	"dbest/internal/sample"
	"dbest/internal/sketch"
	"dbest/internal/table"
)

// DefaultSampleSize is the reservoir capacity used when TrainConfig does
// not specify one — the paper's 10k-row default. The ingestion subsystem's
// maintained reservoir mirrors must use the same value, so it is exported
// rather than duplicated.
const DefaultSampleSize = 10000

// TrainConfig controls sampling and model training for one column set.
type TrainConfig struct {
	SampleSize int     // reservoir capacity; default DefaultSampleSize
	Bins       int     // KDE grid bins; default kde.DefaultBins
	Bandwidth  float64 // KDE bandwidth; <= 0 selects Silverman's rule. Set
	// explicitly for ordinal attributes with few discrete values (e.g. a
	// fraction of the key spacing for integer join keys), where a data-driven rule
	// oversmooths heavy skew.
	Seed  int64   // deterministic sampling/training seed
	Scale float64 // logical rows per physical row (simulated big tables); default 1
	// GroupBy enables per-group models over an Int64 column; SampleSize then
	// applies per group (the paper sizes samples "so that on average there
	// will be 10k rows for each GROUP BY value", §4.6).
	GroupBy string
	// MinGroupModel is the minimum per-group sample size that warrants a
	// model; smaller groups retain their raw tuples and answer exactly
	// (paper §2.3 Limitations: "building models over small groups is an
	// overkill; it is preferable to just keep and process the small number
	// of tuples in the group"). Default 30.
	MinGroupModel int
	// EnsemblePLR adds the piecewise-linear constituent to the ensemble.
	EnsemblePLR bool
	// Regressor selects the regression-model family: "" or "ensemble"
	// (the paper's learned-selector ensemble), or a single constituent:
	// "gboost", "xgboost", "plr". Single constituents are used by the
	// ablation experiments on the paper's model-selection design choice.
	Regressor string
	// Boost overrides booster hyperparameters (nil = auto by sample size).
	Boost *boost.Options
	// Workers bounds parallel per-group training (0 = GOMAXPROCS).
	Workers int
}

func (c *TrainConfig) withDefaults() TrainConfig {
	out := TrainConfig{SampleSize: DefaultSampleSize, Bins: kde.DefaultBins, Scale: 1, MinGroupModel: 30}
	if c == nil {
		return out
	}
	out = *c
	if out.SampleSize <= 0 {
		out.SampleSize = DefaultSampleSize
	}
	if out.Bins <= 0 {
		out.Bins = kde.DefaultBins
	}
	if out.Scale <= 0 {
		out.Scale = 1
	}
	if out.MinGroupModel <= 0 {
		out.MinGroupModel = 30
	}
	return out
}

// RawGroup holds the raw tuples of a group too small to model; queries over
// it are answered exactly (paper §2.3, Limitations).
type RawGroup struct {
	X, Y []float64
}

// TrainStats reports the state-building overheads the paper measures
// (Fig. 4, 12, 16): sampling time, model-training time, and the size of the
// state kept for query processing.
type TrainStats struct {
	SampleTime time.Duration
	TrainTime  time.Duration
	SampleRows int
	ModelBytes int

	// stages is unexported so gob leaves it out: a catalog written with it
	// is byte for byte one written without, and a loaded set reports zeros.
	stages StageTimes
}

// StageTimes splits the training of model pairs by stage, summed over every
// pair a set trained (groups, nominal values). Pairs train in parallel, so
// the sum is CPU-side time and may exceed TrainTime's wall clock.
type StageTimes struct {
	Density   time.Duration // binning the sample into the KDE
	Regressor time.Duration // fitting the regression ensemble
	Grid      time.Duration // building and validating the evaluation grid
	Bounds    time.Duration // bootstrapping the error predictor
}

// Add accumulates o into t.
func (t *StageTimes) Add(o StageTimes) {
	t.Density += o.Density
	t.Regressor += o.Regressor
	t.Grid += o.Grid
	t.Bounds += o.Bounds
}

// Stages reports where the pairs' training time went.
func (s TrainStats) Stages() StageTimes { return s.stages }

// ModelSet is the catalog unit: every model DBEst keeps for one
// (table, x-columns, y-column, group-by) combination.
type ModelSet struct {
	Table   string
	XCols   []string
	YCol    string
	GroupBy string
	N       float64 // logical row count of the modeled table

	Uni       *UniModel           // len(XCols) == 1, no GROUP BY
	Groups    map[int64]*UniModel // per-group models
	GroupRows map[int64]float64   // logical per-group cardinalities
	Raw       map[int64]*RawGroup // small groups kept as raw tuples
	Multi     *MultiModel         // len(XCols) >= 2

	// Nominal categorical support (§2.3): one model per distinct value of
	// the String column NominalBy.
	NominalBy   string
	Nominal     map[string]*UniModel
	NominalRows map[string]float64
	NominalRaw  map[string]*RawGroup

	// Range-shard metadata. A sharded ensemble trains one independent
	// ModelSet per contiguous x-range shard: Shard is this set's index,
	// Shards the ensemble size, and [ShardLo, ShardHi) the planned range it
	// owns (the first shard extends to -inf and the last to +inf for
	// routing). Shards <= 1 means the set is unsharded.
	Shard            int
	Shards           int
	ShardLo, ShardHi float64

	// Spec is the serialized declarative model definition (the engine's
	// ModelSpec, JSON-encoded) this set was trained from. It rides through
	// gob persistence so a reloaded catalog can re-register the model for
	// staleness tracking and retrain it by re-executing the spec. Empty for
	// models trained before specs existed. core stays agnostic of the
	// encoding: it stores and round-trips the blob, nothing more.
	Spec []byte

	// Sketch makes this set a sketch estimator over XCols[0] instead of a
	// trained model pair: an HLL answering COUNT(DISTINCT x) or a Count-Min
	// TOP-K sketch. Sketch sets have no YCol and no Uni/Groups/Multi; they
	// are kept fresh by absorbing appended values directly (no retraining),
	// and they gob-persist in catalog bundles like every other set.
	Sketch *sketch.Sketch

	Stats TrainStats
}

// Key returns the catalog key identifying this model set. Shard members of
// a sharded ensemble carry an @s<i>/<K> suffix so the K sets coexist in the
// catalog under one base key.
func (ms *ModelSet) Key() string {
	k := ms.BaseKey()
	if ms.Shards > 1 {
		k += fmt.Sprintf("@s%d/%d", ms.Shard, ms.Shards)
	}
	return k
}

// BaseKey returns the catalog key without any shard suffix — the key all
// members of a sharded ensemble share. Sketch sets key on their kind in
// the group-by slot ("t|x||sketch:hll"), so an HLL and a TOP-K sketch on
// the same column coexist and never collide with a model key (models
// always have a y-column).
func (ms *ModelSet) BaseKey() string {
	if ms.Sketch != nil {
		return Key(ms.Table, ms.XCols, "", "sketch:"+string(ms.Sketch.Kind()))
	}
	k := Key(ms.Table, ms.XCols, ms.YCol, ms.GroupBy)
	if ms.NominalBy != "" {
		k += "#" + ms.NominalBy
	}
	return k
}

// Key builds the canonical catalog key for a column set.
func Key(tbl string, xcols []string, ycol, groupBy string) string {
	k := tbl + "|"
	for i, x := range xcols {
		if i > 0 {
			k += ","
		}
		k += x
	}
	return k + "|" + ycol + "|" + groupBy
}

// trainPair fits the (D, R) pair over sample columns xs, ys representing n
// logical rows, tabulates its evaluation grid, and reports how long each
// stage took. A pair whose grid cannot be tabulated is refused with an
// errNoGrid error naming the column, the support and the worst error. A
// canceled ctx aborts between stages, so an abandoned training request
// stops burning CPU at the next boundary.
func trainPair(ctx context.Context, xCol, yCol string, xs, ys []float64, n float64, cfg TrainConfig) (*UniModel, StageTimes, error) {
	var st StageTimes
	if len(xs) == 0 {
		return nil, st, errors.New("core: empty training sample")
	}
	// One NaN or ±Inf would index the KDE's bins out of range, or train NaN
	// trees whose model then serves NaN: every caller flows through here, so
	// this is where a bad value becomes an error.
	if err := checkFinite(xCol, xs); err != nil {
		return nil, st, err
	}
	if err := checkFinite(yCol, ys); err != nil {
		return nil, st, err
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	d, err := kde.NewBinned(xs, cfg.Bins, cfg.Bandwidth)
	if err != nil {
		return nil, st, err
	}
	st.Density = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	t0 = time.Now()
	r, err := fitRegressor(xs, ys, cfg)
	if err != nil {
		return nil, st, err
	}
	st.Regressor = time.Since(t0)
	lo, hi := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m := &UniModel{XCol: xCol, YCol: yCol, N: n, D: d, R: r, XLo: lo, XHi: hi}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	t0 = time.Now()
	// Every trainPair caller — plain, grouped, nominal, shard members, and
	// the refresher's spec re-execution — flows through here, so no model is
	// published without a grid, and a retrain that cannot build one fails
	// and leaves the model it would have replaced in place.
	if m.Grid, err = buildGrid(m, cfg.Workers); err != nil {
		return nil, st, fmt.Errorf("core: %w", err)
	}
	st.Grid = time.Since(t0)
	// The error predictor is fitted here, while the training sample is
	// still in hand (it is discarded after training, §3) — like the grid,
	// every caller and every retrain flows through this funnel.
	t0 = time.Now()
	reg := r.ForRange(lo, hi)
	m.EB = buildErrBounds(xs, ys, reg.Predict1, cfg.Seed)
	st.Bounds = time.Since(t0)
	return m, st, nil
}

// checkFinite rejects a training column holding a NaN or an infinity,
// naming the column and the kind of value.
func checkFinite(col string, vs []float64) error {
	for _, v := range vs {
		switch {
		case math.IsNaN(v):
			return fmt.Errorf("core: column %q has a NaN in the training sample", col)
		case math.IsInf(v, 0):
			return fmt.Errorf("core: column %q has an infinite value (%v) in the training sample", col, v)
		}
	}
	return nil
}

// fitRegressor trains the configured regression-model family. Single
// constituents are wrapped in a one-model Ensemble so the evaluation code
// paths (per-range selection, integration) stay uniform.
func fitRegressor(xs, ys []float64, cfg TrainConfig) (*boost.Ensemble, error) {
	switch cfg.Regressor {
	case "", "ensemble":
		return boost.FitEnsemble(xs, ys, &boost.EnsembleOptions{
			Boost:      cfg.Boost,
			Seed:       cfg.Seed,
			IncludePLR: cfg.EnsemblePLR,
		})
	case "gboost", "xgboost", "plr":
		X := make([][]float64, len(xs))
		for i := range xs {
			X[i] = []float64{xs[i]}
		}
		var m boost.Regressor
		var err error
		switch cfg.Regressor {
		case "gboost":
			m, err = boost.FitGradientBoost(X, ys, cfg.Boost)
		case "xgboost":
			m, err = boost.FitXGBoost(X, ys, cfg.Boost)
		default:
			m, err = boost.FitPiecewiseLinear(xs, ys, 0)
		}
		if err != nil {
			return nil, err
		}
		return &boost.Ensemble{Models: []boost.Regressor{m}}, nil
	default:
		return nil, fmt.Errorf("core: unknown regressor %q", cfg.Regressor)
	}
}

// Train builds a ModelSet for (xcols, ycol) over tb: it draws the uniform
// (reservoir) sample, trains the model pair (per group if cfg.GroupBy is
// set, multivariate if len(xcols) > 1), records overheads, and discards the
// sample — only models are retained, per §3.
func Train(tb *table.Table, xcols []string, ycol string, cfg *TrainConfig) (*ModelSet, error) {
	return TrainContext(context.Background(), tb, xcols, ycol, cfg)
}

// TrainContext is Train with cancellation: a canceled ctx aborts the build
// at the next fit boundary (between the density and regressor fits, or
// between groups for GROUP BY models) and returns the context's error.
func TrainContext(ctx context.Context, tb *table.Table, xcols []string, ycol string, cfg *TrainConfig) (*ModelSet, error) {
	c := cfg.withDefaults()
	if len(xcols) == 0 {
		return nil, errors.New("core: no predicate columns")
	}
	if tb.NumRows() == 0 {
		return nil, fmt.Errorf("core: table %s is empty", tb.Name)
	}
	for _, x := range xcols {
		if !tb.HasColumn(x) {
			return nil, fmt.Errorf("core: table %s has no column %q", tb.Name, x)
		}
	}
	if !tb.HasColumn(ycol) {
		return nil, fmt.Errorf("core: table %s has no column %q", tb.Name, ycol)
	}
	ms := &ModelSet{
		Table: tb.Name, XCols: append([]string(nil), xcols...), YCol: ycol,
		GroupBy: c.GroupBy, N: float64(tb.NumRows()) * c.Scale,
	}
	switch {
	case c.GroupBy != "":
		if len(xcols) != 1 {
			return nil, errors.New("core: GROUP BY models require a single predicate column")
		}
		if err := trainGrouped(ctx, tb, ms, xcols[0], ycol, c); err != nil {
			return nil, err
		}
	case len(xcols) == 1:
		if err := trainUni(ctx, tb, ms, xcols[0], ycol, c); err != nil {
			return nil, err
		}
	default:
		if err := trainMulti(ctx, tb, ms, xcols, ycol, c); err != nil {
			return nil, err
		}
	}
	ms.Stats.ModelBytes = ms.SizeBytes()
	return ms, nil
}

func trainUni(ctx context.Context, tb *table.Table, ms *ModelSet, xcol, ycol string, c TrainConfig) error {
	t0 := time.Now()
	idx := sample.Uniform(tb.NumRows(), c.SampleSize, c.Seed)
	xs, ys, err := gatherPair(tb, xcol, ycol, idx)
	if err != nil {
		return err
	}
	ms.Stats.SampleTime = time.Since(t0)
	ms.Stats.SampleRows = len(idx)

	t1 := time.Now()
	m, st, err := trainPair(ctx, xcol, ycol, xs, ys, ms.N, c)
	if err != nil {
		return err
	}
	ms.Stats.TrainTime = time.Since(t1)
	ms.Stats.stages = st
	ms.Uni = m
	return nil
}

func trainGrouped(ctx context.Context, tb *table.Table, ms *ModelSet, xcol, ycol string, c TrainConfig) error {
	t0 := time.Now()
	groups, counts, err := sample.ByGroup(tb, c.GroupBy, c.SampleSize, c.Seed)
	if err != nil {
		return err
	}
	type gsample struct {
		g      int64
		xs, ys []float64
	}
	var gss []gsample
	for g, idx := range groups {
		xs, ys, err := gatherPair(tb, xcol, ycol, idx)
		if err != nil {
			return err
		}
		gss = append(gss, gsample{g, xs, ys})
		ms.Stats.SampleRows += len(idx)
	}
	ms.Stats.SampleTime = time.Since(t0)

	t1 := time.Now()
	ms.Groups = make(map[int64]*UniModel, len(gss))
	ms.GroupRows = make(map[int64]float64, len(gss))
	ms.Raw = make(map[int64]*RawGroup)
	models := make([]*UniModel, len(gss))
	stages := make([]StageTimes, len(gss))
	// Per-group training is embarrassingly parallel (§3).
	trainErr := parallel.FirstError(len(gss), c.Workers, func(i int) error {
		gs := gss[i]
		if len(gs.xs) < c.MinGroupModel {
			return nil // handled below as a raw group
		}
		cfg := c
		cfg.Seed = c.Seed + gs.g
		// Group training already fans out across workers; keep each
		// group's grid build sequential to avoid nested oversubscription.
		cfg.Workers = 1
		m, st, err := trainPair(ctx, xcol, ycol, gs.xs, gs.ys, float64(counts[gs.g])*c.Scale, cfg)
		if err != nil {
			return fmt.Errorf("group %d: %w", gs.g, err)
		}
		models[i], stages[i] = m, st
		return nil
	})
	if trainErr != nil {
		return trainErr
	}
	for i, gs := range gss {
		ms.GroupRows[gs.g] = float64(counts[gs.g]) * c.Scale
		ms.Stats.stages.Add(stages[i])
		if models[i] != nil {
			ms.Groups[gs.g] = models[i]
		} else {
			ms.Raw[gs.g] = &RawGroup{X: gs.xs, Y: gs.ys}
		}
	}
	ms.Stats.TrainTime = time.Since(t1)
	return nil
}

func trainMulti(ctx context.Context, tb *table.Table, ms *ModelSet, xcols []string, ycol string, c TrainConfig) error {
	t0 := time.Now()
	idx := sample.Uniform(tb.NumRows(), c.SampleSize, c.Seed)
	cols := make([][]float64, len(xcols))
	for j, xc := range xcols {
		fs, err := tb.Floats(xc)
		if err != nil {
			return err
		}
		cols[j] = fs
	}
	yf, err := tb.Floats(ycol)
	if err != nil {
		return err
	}
	pts := make([][]float64, len(idx))
	ys := make([]float64, len(idx))
	for i, ri := range idx {
		p := make([]float64, len(xcols))
		for j := range xcols {
			p[j] = cols[j][ri]
		}
		pts[i] = p
		ys[i] = yf[ri]
	}
	ms.Stats.SampleTime = time.Since(t0)
	ms.Stats.SampleRows = len(idx)

	t1 := time.Now()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Bound the retained KDE points so the stored model stays compact.
	maxPts := 4096
	d, err := kde.NewMultivariate(pts, nil, maxPts)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	r, err := boost.FitGradientBoost(pts, ys, c.Boost)
	if err != nil {
		return err
	}
	ms.Multi = &MultiModel{
		XCols: append([]string(nil), xcols...), YCol: ycol, N: ms.N, D: d, R: r,
	}
	ms.Stats.TrainTime = time.Since(t1)
	return nil
}

func gatherPair(tb *table.Table, xcol, ycol string, idx []int) (xs, ys []float64, err error) {
	xf, err := tb.Floats(xcol)
	if err != nil {
		return nil, nil, err
	}
	yf, err := tb.Floats(ycol)
	if err != nil {
		return nil, nil, err
	}
	xs = make([]float64, len(idx))
	ys = make([]float64, len(idx))
	for i, ri := range idx {
		xs[i] = xf[ri]
		ys[i] = yf[ri]
	}
	return xs, ys, nil
}
