package dbest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"dbest/internal/core"
	"dbest/internal/ingest"
	"dbest/internal/sample"
	"dbest/internal/sketch"
	"dbest/internal/table"
)

// Declarative model definitions: a ModelSpec is the first-class description
// of one trained model pair (or ensemble) — what it is trained over, which
// columns it covers, and how it is sampled — and Engine.CreateModel is the
// single entry point that executes one.
//
// Because a spec is plain data, it is persisted alongside the models in the
// catalog: a catalog reloaded via LoadModels re-registers every
// spec-carrying model with the staleness ledger, so background refresh keeps
// working across process restarts.
//
// The SQL front end exposes the same surface declaratively:
//
//	CREATE MODEL <name> ON <tbl>(x [, x2]; y)
//	    [JOIN <tbl2> ON lk = rk [FRACTION num/denom]]
//	    [GROUP BY c] [NOMINAL BY c] [SHARDS k] [SAMPLE n] [SEED s]
//	DROP MODEL <name>
//	SHOW MODELS
//
// via Engine.Exec, the cmd/dbest stdin loop and the dbest-serve HTTP API.

// JoinSpec describes a two-table equi-join model source (§2.2). With
// SampleNum/SampleDenom zero the join is precomputed in full before
// sampling (the paper's first join approach); with a nonzero keep ratio
// each side is first reduced by hashed (universe) sampling on the join key
// (the second approach, for joins too large to precompute).
type JoinSpec struct {
	Table    string `json:"table"`
	LeftKey  string `json:"left_key"`
	RightKey string `json:"right_key"`
	// Sampled selects the hashed-sampling approach explicitly; setting a
	// keep ratio implies it, so JSON bodies may give just the ratio.
	Sampled bool `json:"sampled,omitempty"`
	// SampleNum/SampleDenom is the hash-band keep ratio (e.g. 1/4 keeps
	// ≈ 25% of join-key values), required when sampling.
	SampleNum   uint64 `json:"sample_num,omitempty"`
	SampleDenom uint64 `json:"sample_denom,omitempty"`
}

// sampled reports whether the join source uses hashed join-key sampling.
func (j *JoinSpec) sampled() bool { return j.Sampled || j.SampleNum != 0 || j.SampleDenom != 0 }

// ModelSpec declares one model build: the source (a table, optionally
// joined to a second), the predicate columns XCols and aggregate column
// YCol, the model topology (GroupBy / NominalBy / Shards) and the sampling
// and training budget. The zero values of the optional fields mean
// "default" (10k-row sample, auto seed 0, scale 1, ensemble regressor).
//
// The JSON form of a spec is its wire and persistence format: POST /train
// accepts it as the request body, and every model trained through
// CreateModel carries its spec in the catalog so SaveModels/LoadModels
// round-trips it.
type ModelSpec struct {
	// Name is an optional user-facing handle for DROP MODEL / SHOW MODELS;
	// models remain addressable by their catalog key regardless.
	Name string `json:"name,omitempty"`
	// Table is the base (or join left-side) table.
	Table string `json:"table"`
	// Join, when set, trains over the equi-join of Table and Join.Table.
	Join *JoinSpec `json:"join,omitempty"`
	// XCols are the range-predicate columns (one for univariate, two or
	// more for multivariate box predicates).
	XCols []string `json:"xcols"`
	// YCol is the aggregate column.
	YCol string `json:"ycol"`
	// GroupBy builds one model pair per value of this Int64 column.
	GroupBy string `json:"groupby,omitempty"`
	// NominalBy builds one model pair per distinct value of this String
	// column (§2.3 categorical support). Requires a single x column.
	NominalBy string `json:"nominal_by,omitempty"`
	// Shards >= 1 builds a range-sharded ensemble of that many shards on
	// the single x column; 0 builds a plain model.
	Shards int `json:"shards,omitempty"`

	// Sketch selects a sketch build instead of a model pair: "hll" answers
	// COUNT(DISTINCT x), "topk" answers TOP k(x) (SQL: CREATE SKETCH). A
	// sketch spec covers exactly one x column and no y column, and none of
	// the model topology or sampling fields apply — the sketch absorbs every
	// row, and keeps absorbing appended rows with zero retrains.
	Sketch string `json:"sketch,omitempty"`
	// Precision is the HLL register precision (2^p registers), 4..18;
	// 0 uses the default (14, ~0.8% standard error).
	Precision int `json:"precision,omitempty"`
	// TopK is how many heavy-hitter candidates a topk sketch tracks;
	// 0 uses the default (10).
	TopK int `json:"topk,omitempty"`

	// SampleSize is the uniform (reservoir) sample budget; with GroupBy it
	// is per group. Default 10 000.
	SampleSize int `json:"sample_size,omitempty"`
	// Seed makes sampling and training deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Scale is the logical rows represented per physical row. Default 1.
	Scale float64 `json:"scale,omitempty"`
	// MinGroupModel: groups whose sample is smaller keep raw tuples
	// instead of models. Default 30.
	MinGroupModel int `json:"min_group_model,omitempty"`
	// Workers bounds parallel per-group training. 0 = GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// EnsemblePLR adds a piecewise-linear constituent to the regression
	// ensemble.
	EnsemblePLR bool `json:"ensemble_plr,omitempty"`
	// KDEBins is the density-estimator grid resolution. Default 1024.
	KDEBins int `json:"kde_bins,omitempty"`
	// Regressor selects the regression family: "" or "ensemble" (default),
	// or a single constituent "gboost", "xgboost", "plr".
	Regressor string `json:"regressor,omitempty"`
}

// regressorFamilies mirrors the families core's fitRegressor accepts, so a
// bad spec fails Validate instead of a training run.
var regressorFamilies = map[string]bool{
	"": true, "ensemble": true, "gboost": true, "xgboost": true, "plr": true,
}

// Validate is the one place a model definition's arguments are checked: a
// spec that validates is structurally executable (training can still fail on
// data conditions — unknown columns, empty tables).
func (s *ModelSpec) Validate() error {
	if s.Table == "" {
		return errors.New("dbest: model spec requires a table")
	}
	if s.Sketch != "" {
		return s.validateSketch()
	}
	if len(s.XCols) == 0 {
		return errors.New("dbest: model spec requires at least one x column")
	}
	seen := make(map[string]bool, len(s.XCols))
	for _, x := range s.XCols {
		if x == "" {
			return errors.New("dbest: model spec has an empty x column")
		}
		if seen[x] {
			return fmt.Errorf("dbest: model spec repeats x column %q", x)
		}
		seen[x] = true
	}
	if s.YCol == "" {
		return errors.New("dbest: model spec requires a y column")
	}
	if s.Shards < 0 {
		return fmt.Errorf("dbest: model spec shard count %d is negative", s.Shards)
	}
	if s.Shards >= 1 {
		if len(s.XCols) != 1 {
			return errors.New("dbest: sharded training requires exactly one x column")
		}
		if s.GroupBy != "" {
			return errors.New("dbest: sharded training does not support GROUP BY")
		}
		if s.NominalBy != "" {
			return errors.New("dbest: sharded training does not support NOMINAL BY")
		}
		if s.Join != nil {
			return errors.New("dbest: sharded training does not support joins")
		}
	}
	if s.NominalBy != "" {
		if len(s.XCols) != 1 {
			return errors.New("dbest: nominal training requires exactly one x column")
		}
		if s.GroupBy != "" {
			return errors.New("dbest: nominal training does not support GROUP BY")
		}
		if s.Join != nil {
			return errors.New("dbest: nominal training does not support joins")
		}
	}
	if j := s.Join; j != nil {
		if j.Table == "" || j.LeftKey == "" || j.RightKey == "" {
			return errors.New("dbest: join spec requires table, left_key and right_key")
		}
		if j.sampled() {
			if j.SampleNum == 0 || j.SampleDenom == 0 {
				return fmt.Errorf("dbest: hash-band keep ratio %d/%d must have nonzero numerator and denominator",
					j.SampleNum, j.SampleDenom)
			}
			if j.SampleNum > j.SampleDenom {
				return fmt.Errorf("dbest: hash-band keep ratio %d/%d exceeds 1", j.SampleNum, j.SampleDenom)
			}
		}
	}
	if s.SampleSize < 0 {
		return fmt.Errorf("dbest: model spec sample size %d is negative", s.SampleSize)
	}
	if s.Scale < 0 {
		return fmt.Errorf("dbest: model spec scale %g is negative", s.Scale)
	}
	if !regressorFamilies[s.Regressor] {
		return fmt.Errorf("dbest: unknown regressor %q", s.Regressor)
	}
	return nil
}

// validateSketch checks the sketch subset of the spec: one column, no
// aggregate column, and none of the model-only topology fields.
func (s *ModelSpec) validateSketch() error {
	if _, err := sketch.ParseKind(s.Sketch); err != nil {
		return err
	}
	if len(s.XCols) != 1 || s.XCols[0] == "" {
		return errors.New("dbest: sketch spec requires exactly one column")
	}
	if s.YCol != "" {
		return errors.New("dbest: sketch spec takes no y column")
	}
	if s.GroupBy != "" || s.NominalBy != "" || s.Shards != 0 || s.Join != nil {
		return errors.New("dbest: sketch spec does not support GROUP BY, NOMINAL BY, SHARDS or joins")
	}
	if s.Precision != 0 && (s.Precision < sketch.MinPrecision || s.Precision > sketch.MaxPrecision) {
		return fmt.Errorf("dbest: sketch precision %d outside [%d, %d]",
			s.Precision, sketch.MinPrecision, sketch.MaxPrecision)
	}
	if s.TopK < 0 || s.TopK > sketch.MaxK {
		return fmt.Errorf("dbest: sketch K %d outside [1, %d]", s.TopK, sketch.MaxK)
	}
	return nil
}

// clone deep-copies the spec so CreateModel (and the retrain closures it
// registers) are immune to caller mutation after the call returns.
func (s *ModelSpec) clone() *ModelSpec {
	c := *s
	c.XCols = append([]string(nil), s.XCols...)
	if s.Join != nil {
		j := *s.Join
		c.Join = &j
	}
	return &c
}

// config lowers the spec's sampling/training fields to a core.TrainConfig.
func (s *ModelSpec) config() *core.TrainConfig {
	return &core.TrainConfig{
		SampleSize:    s.SampleSize,
		GroupBy:       s.GroupBy,
		Scale:         s.Scale,
		Seed:          s.Seed,
		MinGroupModel: s.MinGroupModel,
		Workers:       s.Workers,
		EnsemblePLR:   s.EnsemblePLR,
		Bins:          s.KDEBins,
		Regressor:     s.Regressor,
	}
}

// encode serializes the spec for catalog persistence. A ModelSpec is plain
// data, so the marshal cannot fail.
func (s *ModelSpec) encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		return nil
	}
	return b
}

// decodeSpec parses a persisted spec blob; a nil/empty blob (models trained
// before specs existed, or loaded from an old catalog file) decodes to nil.
func decodeSpec(b []byte) (*ModelSpec, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var s ModelSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("dbest: corrupt persisted model spec: %w", err)
	}
	return &s, nil
}

// Summary renders the spec in the CREATE MODEL clause syntax (minus the
// name) — the compact one-line definition used by EXPLAIN and SHOW MODELS.
func (s *ModelSpec) Summary() string {
	var b strings.Builder
	if s.Sketch != "" {
		fmt.Fprintf(&b, "%s(%s) TYPE %s", s.Table, s.XCols[0], strings.ToUpper(s.Sketch))
		if s.Precision > 0 {
			fmt.Fprintf(&b, " PRECISION %d", s.Precision)
		}
		if s.TopK > 0 {
			fmt.Fprintf(&b, " K %d", s.TopK)
		}
		return b.String()
	}
	b.WriteString(s.Table)
	b.WriteByte('(')
	b.WriteString(strings.Join(s.XCols, ","))
	b.WriteString("; ")
	b.WriteString(s.YCol)
	b.WriteByte(')')
	if j := s.Join; j != nil {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", j.Table, j.LeftKey, j.RightKey)
		if j.sampled() {
			fmt.Fprintf(&b, " FRACTION %d/%d", j.SampleNum, j.SampleDenom)
		}
	}
	if s.GroupBy != "" {
		b.WriteString(" GROUP BY " + s.GroupBy)
	}
	if s.NominalBy != "" {
		b.WriteString(" NOMINAL BY " + s.NominalBy)
	}
	if s.Shards >= 1 {
		fmt.Fprintf(&b, " SHARDS %d", s.Shards)
	}
	if s.SampleSize > 0 {
		fmt.Fprintf(&b, " SAMPLE %d", s.SampleSize)
	}
	if s.Seed != 0 {
		fmt.Fprintf(&b, " SEED %d", s.Seed)
	}
	return b.String()
}

// specRetrain is the retrain closure registered with the staleness ledger:
// re-executing the spec rebuilds the models from the tables' current rows.
// The same closure can be reconstructed from a reloaded catalog, which is
// what makes loaded models refreshable.
func (e *Engine) specRetrain(spec *ModelSpec) ingest.RetrainFunc {
	return func(ctx context.Context) error {
		_, err := e.CreateModel(ctx, spec)
		return err
	}
}

// CreateModel validates and executes one declarative model definition: it
// trains the models the spec describes, registers them in the catalog with
// the spec persisted alongside (SaveModels round-trips it), registers
// staleness tracking whose retrain re-executes the spec, and returns build
// statistics. It is the only way to define a model: CREATE MODEL, POST
// /train and the CLI's -train flag all lower to it. A canceled ctx aborts the
// build at the next model-fit boundary without touching the catalog.
func (e *Engine) CreateModel(ctx context.Context, spec *ModelSpec) (*TrainInfo, error) {
	if spec == nil {
		return nil, errors.New("dbest: nil model spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.clone()
	switch {
	case spec.Sketch != "":
		return e.createSketch(ctx, spec)
	case spec.Shards >= 1:
		return e.createSharded(ctx, spec)
	case spec.NominalBy != "":
		return e.createNominal(ctx, spec)
	case spec.Join != nil:
		return e.createJoin(ctx, spec)
	default:
		return e.createPlain(ctx, spec)
	}
}

// install publishes one freshly trained model set: the spec is persisted
// with it, the catalog swap bumps the generation, and the staleness ledger
// starts tracking it against baseRows — the watched tables' row count when
// the training began.
func (e *Engine) install(ms *core.ModelSet, spec *ModelSpec, baseRows int) *TrainInfo {
	ms.Spec = spec.encode()
	e.catalog.Put(ms)
	e.trackModel(ms, spec, baseRows)
	return trainInfo(ms)
}

// createPlain trains a single-table model set (plain, GROUP BY, or
// multivariate, per the spec).
func (e *Engine) createPlain(ctx context.Context, spec *ModelSpec) (*TrainInfo, error) {
	tb := e.Table(spec.Table)
	if tb == nil {
		return nil, fmt.Errorf("dbest: table %q is not registered", spec.Table)
	}
	ms, err := core.TrainContext(ctx, tb, spec.XCols, spec.YCol, spec.config())
	if err != nil {
		return nil, err
	}
	return e.install(ms, spec, tb.NumRows()), nil
}

// createNominal trains one model pair per distinct value of the spec's
// NominalBy column (§2.3).
func (e *Engine) createNominal(ctx context.Context, spec *ModelSpec) (*TrainInfo, error) {
	tb := e.Table(spec.Table)
	if tb == nil {
		return nil, fmt.Errorf("dbest: table %q is not registered", spec.Table)
	}
	ms, err := core.TrainNominalContext(ctx, tb, spec.XCols[0], spec.YCol, spec.NominalBy, spec.config())
	if err != nil {
		return nil, err
	}
	return e.install(ms, spec, tb.NumRows()), nil
}

// createJoin trains over the equi-join of the spec's two tables: in full
// (paper's first join approach) or over hashed join-key samples whose
// under-count is folded into the logical scale (second approach).
func (e *Engine) createJoin(ctx context.Context, spec *ModelSpec) (*TrainInfo, error) {
	j := spec.Join
	lt, rt := e.Table(spec.Table), e.Table(j.Table)
	if lt == nil || rt == nil {
		return nil, fmt.Errorf("dbest: join tables %q, %q must both be registered", spec.Table, j.Table)
	}
	t0 := time.Now()
	jl, jr := lt, rt
	cfg := spec.config()
	if j.sampled() {
		// Both sides share one hash band, and the band follows the spec's
		// seed: the same spec keeps the same join keys on every build.
		seed := uint64(spec.Seed)
		li, err := sample.Hashed(lt, j.LeftKey, j.SampleNum, j.SampleDenom, seed)
		if err != nil {
			return nil, err
		}
		ri, err := sample.Hashed(rt, j.RightKey, j.SampleNum, j.SampleDenom, seed)
		if err != nil {
			return nil, err
		}
		jl, jr = lt.SelectRows(li), rt.SelectRows(ri)
		// The hashed samples keep num/denom of the join-key universe, so the
		// sample-join under-counts the true join by denom/num: fold that into
		// the logical scale so COUNT/SUM report full-join magnitudes.
		if cfg.Scale <= 0 {
			cfg.Scale = 1
		}
		cfg.Scale *= float64(j.SampleDenom) / float64(j.SampleNum)
	}
	joined, err := table.EquiJoin(jl, jr, j.LeftKey, j.RightKey)
	if err != nil {
		return nil, err
	}
	prepTime := time.Since(t0)
	joined.Name = JoinName(spec.Table, j.Table)
	ms, err := core.TrainContext(ctx, joined, spec.XCols, spec.YCol, cfg)
	if err != nil {
		return nil, err
	}
	// The precomputation cost is part of state building, not query time.
	ms.Stats.SampleTime += prepTime
	return e.install(ms, spec, lt.NumRows()+rt.NumRows()), nil
}

// createSketch builds the sketch the spec describes from every current row
// of its column, registers it in the catalog like any model set, and
// registers an absorb entry with the ledger: appended values fold into the
// sketch in place, keeping it fresh with zero refresher retrains. The scan
// and the ledger registration run under appendMu so no concurrent append
// can land between them (it would be either scanned or absorbed, never
// both, never neither).
func (e *Engine) createSketch(ctx context.Context, spec *ModelSpec) (*TrainInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kind, err := sketch.ParseKind(spec.Sketch)
	if err != nil {
		return nil, err
	}
	sk, err := sketch.New(kind, spec.Precision, spec.TopK)
	if err != nil {
		return nil, err
	}
	col := spec.XCols[0]
	t0 := time.Now()
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	tb := e.Table(spec.Table)
	if tb == nil {
		return nil, fmt.Errorf("dbest: table %q is not registered", spec.Table)
	}
	c := tb.Column(col)
	if c == nil {
		return nil, fmt.Errorf("dbest: table %q has no column %q", spec.Table, col)
	}
	if c.Type == table.String {
		sk.AddStrings(c.Strings)
	} else {
		fs := make([]float64, c.Len())
		for i := range fs {
			fs[i] = c.Float(i)
		}
		sk.AddFloats(fs)
	}
	ms := &core.ModelSet{Table: spec.Table, XCols: []string{col}, Sketch: sk}
	ms.Spec = spec.encode()
	ms.Stats.SampleRows = tb.NumRows()
	ms.Stats.TrainTime = time.Since(t0)
	ms.Stats.ModelBytes = ms.SizeBytes()
	// Not install: trackModel takes appendMu itself.
	e.catalog.Put(ms)
	e.registerAbsorb(ms, spec, tb.NumRows())
	return trainInfo(ms), nil
}

// registerAbsorb wires one sketch into the staleness ledger in absorb mode:
// appended values of its column are folded in instead of accruing
// staleness. The retrain closure — invoked only when the base table is
// replaced wholesale — rebuilds the sketch from scratch by re-executing the
// spec. Caller must hold appendMu (createSketch) or be ordering-safe
// against appends (retrackLoaded, before serving starts).
func (e *Engine) registerAbsorb(ms *core.ModelSet, spec *ModelSpec, baseRows int) {
	sk := ms.Sketch
	absorb := func(fs []float64, ss []string) {
		if len(fs) > 0 {
			sk.AddFloats(fs)
		} else {
			sk.AddStrings(ss)
		}
		e.sketchUpdates.Add(uint64(len(fs) + len(ss)))
	}
	e.ledger.RegisterAbsorb(ms.Key(), []string{spec.Table}, spec.XCols[0], baseRows, absorb, e.specRetrain(spec))
}

// watchTables lists the base tables whose appends feed models built from
// this spec.
func (s *ModelSpec) watchTables() []string {
	if s.Join != nil {
		return []string{s.Table, s.Join.Table}
	}
	return []string{s.Table}
}

// retrackLoaded re-registers every loaded model set that carries a
// persisted spec with the staleness ledger, rebasing its retrain on spec
// re-execution — the step that makes a reloaded catalog refreshable.
// Models without a spec (catalogs saved before specs existed) stay
// untracked until rebuilt through CreateModel.
func (e *Engine) retrackLoaded() {
	type loaded struct {
		ms   *core.ModelSet
		spec *ModelSpec
	}
	var sets []loaded
	e.catalog.Scan(func(ms *core.ModelSet) bool {
		spec, err := decodeSpec(ms.Spec)
		// A sketch resumes absorbing only under a sketch spec: registerAbsorb
		// reads its column from there.
		if err == nil && spec != nil && (ms.Sketch != nil) == (spec.Sketch != "") {
			sets = append(sets, loaded{ms, spec})
		}
		return true
	})
	for _, l := range sets {
		// The row count a set was trained over: a single-table model's logical
		// N recovers it exactly, and a sketch counts what it absorbed (its hash
		// functions are process-stable, so it resumes where it left off). What
		// a join or a shard member saw of its tables is unknowable after the
		// fact, so their staleness is measured from load time: base the entry
		// on the live row count rather than let a member's own rows make every
		// loaded ensemble look (K-1)/K-stale and retrain at startup.
		baseRows := l.ms.PhysicalRows(l.spec.Scale)
		switch {
		case l.ms.Sketch != nil:
			baseRows = int(l.ms.Sketch.Absorbed())
		case l.ms.Shards > 1 || l.spec.Join != nil:
			baseRows = e.liveRows(l.spec.watchTables())
		}
		e.track(l.ms, l.spec, baseRows)
	}
}

// ModelInfo is one logical trained model as reported by Engine.Models():
// a sharded ensemble collapses to a single entry under its base key, so
// the raw @s<i>/<K> member keys never leak to callers.
type ModelInfo struct {
	// Key is the base catalog key (shared by all members of an ensemble).
	Key string `json:"key"`
	// Name is the spec's user-facing handle ("" for unnamed models).
	Name string `json:"name,omitempty"`
	// Spec is the declarative definition the model was trained from; nil
	// for models from catalogs saved before specs existed.
	Spec *ModelSpec `json:"spec,omitempty"`
	// Shards is the ensemble size (0 for plain unsharded models).
	Shards int `json:"shards,omitempty"`
	// NumModels counts trained model pairs (per-group / per-nominal-value
	// models count individually, summed across shards).
	NumModels int `json:"num_models"`
	// Bytes is the serialized size of the model state.
	Bytes int `json:"bytes"`
	// Staleness is the model's staleness score (the max across ensemble
	// members); 0 when untracked.
	Staleness float64 `json:"staleness"`
	// Tracked reports whether the staleness ledger watches the model (and
	// a background refresher would retrain it).
	Tracked bool `json:"tracked"`
	// Type marks sketch entries with their kind, "hll" or "topk" ("" for
	// trained model sets).
	Type string `json:"type,omitempty"`
	// AbsorbedRows counts the values a sketch has absorbed — the initial
	// build scan plus every appended row since (0 for model sets).
	AbsorbedRows uint64 `json:"absorbed_rows,omitempty"`
}

// Models reports every logical trained model: base key, parsed spec,
// ensemble size, model count, serialized bytes, and staleness. It is the
// catalog listing behind SHOW MODELS and GET /models; unlike ModelKeys it
// never exposes raw shard-member keys.
func (e *Engine) Models() []ModelInfo {
	scores := make(map[string]Staleness)
	for _, st := range e.ledger.Snapshot() {
		scores[st.Key] = st
	}
	index := make(map[string]int)
	var out []ModelInfo
	e.catalog.Scan(func(ms *core.ModelSet) bool {
		base := ms.BaseKey()
		i, ok := index[base]
		if !ok {
			i = len(out)
			index[base] = i
			info := ModelInfo{Key: base}
			if spec, err := decodeSpec(ms.Spec); err == nil && spec != nil {
				info.Spec = spec
				info.Name = spec.Name
			}
			out = append(out, info)
		}
		inf := &out[i]
		if ms.Shards > 1 {
			inf.Shards = ms.Shards
		}
		if ms.Sketch != nil {
			inf.Type = string(ms.Sketch.Kind())
			inf.AbsorbedRows = ms.Sketch.Absorbed()
		}
		inf.NumModels += ms.NumModels()
		inf.Bytes += ms.Stats.ModelBytes
		if st, ok := scores[ms.Key()]; ok {
			inf.Tracked = true
			if s := st.Score; s > inf.Staleness {
				inf.Staleness = s
			}
		}
		return true
	})
	return out // Scan visits keys sorted, so entries are ordered by base key
}

// DropModel removes trained models by model name (the spec's Name), base
// catalog key, or exact member key, along with their staleness-ledger
// entries, and returns the removed catalog keys. A match on any member of
// a sharded ensemble drops the whole ensemble — a partial ensemble could
// not serve queries or survive a save/load round trip.
func (e *Engine) DropModel(name string) ([]string, error) {
	if name == "" {
		return nil, errors.New("dbest: DropModel requires a model name or key")
	}
	// Pass 1: resolve the name to the base keys it addresses.
	bases := make(map[string]bool)
	e.catalog.Scan(func(ms *core.ModelSet) bool {
		if ms.BaseKey() == name || ms.Key() == name {
			bases[ms.BaseKey()] = true
			return true
		}
		if spec, err := decodeSpec(ms.Spec); err == nil && spec != nil && spec.Name != "" && spec.Name == name {
			bases[ms.BaseKey()] = true
		}
		return true
	})
	if len(bases) == 0 {
		return nil, fmt.Errorf("dbest: no model named %q", name)
	}
	// Pass 2: drop every member of the addressed models in one generation
	// bump. A model trained concurrently between the passes survives under
	// its own key; only the resolved base keys are dropped.
	removed := e.catalog.RemoveMatching(func(ms *core.ModelSet) bool {
		return bases[ms.BaseKey()]
	})
	for _, k := range removed {
		e.ledger.Drop(k)
	}
	return removed, nil
}
