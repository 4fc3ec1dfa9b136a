// Package dbest is a model-based approximate query processing (AQP) engine:
// a Go implementation of "DBEst: Revisiting Approximate Query Processing
// Engines with Machine Learning Models" (Ma & Triantafillou, SIGMOD 2019).
//
// Instead of retaining data or samples, DBEst trains a pair of machine
// learning models per column set of interest — a kernel density estimator
// D(x) over the range-predicate attribute and a regression model R(x) from
// that attribute to the aggregate attribute — from a small uniform sample,
// then answers COUNT, SUM, AVG, VARIANCE, STDDEV and PERCENTILE queries
// (with range predicates, GROUP BY and joins) purely from the models via
// numerical integration. Samples are discarded after training; the models
// are orders of magnitude smaller and faster to query.
//
// Basic usage:
//
//	eng := dbest.New(nil)
//	eng.RegisterTable(tbl)
//	eng.CreateModel(ctx, &dbest.ModelSpec{
//	    Table: "sales", XCols: []string{"date"}, YCol: "price",
//	})
//	res, err := eng.Query("SELECT AVG(price) FROM sales WHERE date BETWEEN 100 AND 200")
//
// Model definitions are declarative (spec.go): the same spec is available
// as a CREATE MODEL statement through Engine.Exec, is persisted with the
// models by SaveModels, and is re-executed by the background refresher
// when ingested rows make a model stale — including models reloaded via
// LoadModels.
package dbest

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dbest/internal/catalog"
	"dbest/internal/core"
	"dbest/internal/exec"
	"dbest/internal/ingest"
	"dbest/internal/sqlparse"
	"dbest/internal/table"
)

// Table re-exports the columnar table type used to feed the engine.
type Table = table.Table

// NewTable creates an empty named table.
func NewTable(name string) *Table { return table.New(name) }

// LoadCSV loads a table from a CSV file with a header row.
func LoadCSV(name, path string) (*Table, error) { return table.LoadCSV(name, path) }

// TrainInfo reports what a CreateModel call built — the state-building
// overheads of the paper's Figs. 4, 12 and 16.
type TrainInfo struct {
	Key        string
	NumModels  int
	ModelBytes int
	SampleRows int
	SampleTime time.Duration
	TrainTime  time.Duration
	// Stages splits the model pairs' training by stage — density fit,
	// regressor fit, grid build, error bounds — summed over every pair built
	// (groups, nominal values, shards), so a training change can say which
	// stage moved. Zero for sketches and multivariate sets.
	Stages StageTimes
	// Shards is the ensemble size for sharded builds (0 for plain training);
	// Key is then the ensemble's base key.
	Shards int
}

// StageTimes is the per-stage split of model-pair training time.
type StageTimes = core.StageTimes

// Options configures the engine.
type Options struct {
	// Workers bounds parallel per-group model evaluation at query time.
	// 0 = GOMAXPROCS; 1 = fully sequential (the paper's single-thread mode).
	Workers int
	// PlanCacheSize bounds the number of prepared queries kept by the plan
	// cache. 0 uses the default (1024); negative disables plan caching.
	PlanCacheSize int
}

// Engine is the DBEst AQP engine: a model catalog over registered tables
// with an exact query processor underneath (Fig. 1 of the paper).
//
// Concurrency: the read path is lock-free. Every query captures one
// engineSnap — an immutable pairing of a catalog snapshot and a table map —
// from an atomic pointer, and plans, resolves tables, and executes entirely
// against it. Writers (table registration, appends, training, refresher
// swaps) mutate builder-side state under writer mutexes and publish fresh
// snapshots; in-flight queries keep their pinned snapshot until they
// finish, after which it becomes garbage.
type Engine struct {
	catalog *catalog.Catalog
	workers int
	plans   *planCache

	// snap is the epoch-published read-path snapshot. pubMu serializes
	// publishers (table writers and the catalog's OnPublish hook);
	// snapRebuilds counts publications for /stats.
	snap         atomic.Pointer[engineSnap]
	pubMu        sync.Mutex
	snapRebuilds atomic.Uint64

	// appendMu serializes all writers of the table map (Append,
	// AppendTable, RegisterTable, DropTable, setPartition). Appends build
	// their copy-on-write clone without blocking readers — queries resolve
	// tables through the published snapshot — and appendMu is what makes
	// that safe: while an appender works on its clone of the head table, no
	// other writer can clone the same head or swap the map entry under it.
	// Lock order: appendMu before pubMu.
	appendMu sync.Mutex

	// ledger tracks per-model staleness as rows are ingested; refresher,
	// when started, retrains stale models in the background (ingest.go).
	ledger    *ingest.Ledger
	refMu     sync.Mutex
	refresher *ingest.Refresher
	refStats  ingest.RefreshStats // final counters of the last stopped refresher

	// shardCtrs accumulates shard-pruning counters across every ShardMerge
	// execution (sharding.go).
	shardCtrs exec.ShardCounters

	// sketchHits counts queries answered from sketches; sketchUpdates counts
	// appended values absorbed into sketches in place (the zero-retrain
	// freshness path).
	sketchHits    atomic.Uint64
	sketchUpdates atomic.Uint64

	// router holds the error-budget router's counters and per-model
	// calibration rings (router.go).
	router routerState
}

// engineSnap is the read path's consistent view: one immutable catalog
// snapshot plus the table map published with it. A query captures one
// engineSnap and both plans and executes against it, so the catalog
// generation it binds and the tables it scans can never disagree. The
// table map is never mutated after publication (writers clone it), and it
// implements exec.TableResolver so execution resolves tables against the
// pinned view.
type engineSnap struct {
	cat    *catalog.Snapshot
	tables map[string]*table.Table
}

// Table implements exec.TableResolver against the snapshot's table map.
func (s *engineSnap) Table(name string) *table.Table { return s.tables[name] }

// New creates an engine. opts may be nil.
func New(opts *Options) *Engine {
	w, cacheSize := 0, defaultPlanCacheSize
	if opts != nil {
		w = opts.Workers
		if opts.PlanCacheSize > 0 {
			cacheSize = opts.PlanCacheSize
		} else if opts.PlanCacheSize < 0 {
			cacheSize = 0
		}
	}
	e := &Engine{
		catalog: catalog.New(),
		workers: w,
		plans:   newPlanCache(cacheSize),
		ledger:  ingest.NewLedger(),
	}
	e.snap.Store(&engineSnap{cat: e.catalog.Snapshot(), tables: make(map[string]*table.Table)})
	// Every catalog publication (training, refresher swaps, invalidations)
	// folds into the engine snapshot, so the read path observes catalog and
	// tables through one pointer. The hook runs under the catalog's writer
	// mutex, so snapshots arrive in generation order.
	e.catalog.OnPublish(func(s *catalog.Snapshot) { e.publish(s, nil) })
	return e
}

// publish installs a new read-path snapshot. A nil cat keeps the current
// catalog view, a nil tables keeps the current table map. A catalog
// snapshot older than the published one never replaces it (publishers can
// race only in the tables dimension; catalog publications arrive in order).
func (e *Engine) publish(cat *catalog.Snapshot, tables map[string]*table.Table) {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	cur := e.snap.Load()
	if cat == nil || (cur != nil && cat.Generation() < cur.cat.Generation()) {
		cat = cur.cat
	}
	if tables == nil {
		tables = cur.tables
	}
	e.snap.Store(&engineSnap{cat: cat, tables: tables})
	e.snapRebuilds.Add(1)
}

// setTable publishes a copy of the table map with name bound to tb (or
// removed, for nil tb). Caller must hold appendMu.
func (e *Engine) setTable(name string, tb *table.Table) {
	cur := e.snap.Load().tables
	next := make(map[string]*table.Table, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if tb == nil {
		delete(next, name)
	} else {
		next[name] = tb
	}
	e.publish(nil, next)
}

// SnapshotStats reports the read path's snapshot counters: the catalog
// generation of the currently published snapshot and how many snapshots
// have been published — the write-side cost of lock-free serving.
type SnapshotStats struct {
	// Generation is the catalog generation queries are currently serving
	// under.
	Generation uint64 `json:"snapshot_generation"`
	// Rebuilds counts engine-snapshot publications (table swaps plus
	// catalog publications folded in).
	Rebuilds uint64 `json:"snapshot_rebuilds"`
	// CatalogRebuilds counts catalog-snapshot builds (one per catalog
	// mutation).
	CatalogRebuilds uint64 `json:"catalog_rebuilds"`
}

// SnapshotStats returns the engine's snapshot counters. It never contends
// with serving.
func (e *Engine) SnapshotStats() SnapshotStats {
	return SnapshotStats{
		Generation: e.snap.Load().cat.Generation(),
		Rebuilds:   e.snapRebuilds.Load(),
		//lint:snapcapture monitoring-only: Rebuilds is a live atomic counter, not part of the published snapshot, and may legitimately run ahead of Generation
		CatalogRebuilds: e.catalog.Rebuilds(),
	}
}

// EvalKernelStats is a snapshot of the process-wide evaluation-kernel
// counters: how many univariate model-path integrals a train-time
// prefix-integral grid answered, and how many multivariate integrals ran
// through tensor quadrature — the only quadrature left on the serving path.
type EvalKernelStats struct {
	GridHits      uint64 `json:"grid_hits"`
	GridFallbacks uint64 `json:"grid_fallbacks"`
}

// EvalKernelStats returns the evaluation-kernel counters. They are
// process-wide (all engines in the process share them) and never contend
// with serving.
func (e *Engine) EvalKernelStats() EvalKernelStats {
	c := core.ReadEvalCounters()
	return EvalKernelStats{
		GridHits:      c.GridHits,
		GridFallbacks: c.GridFallbacks,
	}
}

// SketchStats is a snapshot of the engine's sketch-serving counters:
// queries answered from sketches, appended values absorbed into sketches in
// place (with zero refresher retrains), and the serialized footprint of all
// registered sketches.
type SketchStats struct {
	Hits    uint64 `json:"sketch_hits"`
	Updates uint64 `json:"sketch_updates"`
	Bytes   int    `json:"sketch_bytes"`
}

// SketchStats returns the engine's sketch counters. Bytes is computed from
// the current snapshot, so the call never contends with serving.
func (e *Engine) SketchStats() SketchStats {
	bytes := 0
	e.snap.Load().cat.Scan(func(ms *core.ModelSet) bool {
		if ms.Sketch != nil {
			bytes += ms.Sketch.SizeBytes()
		}
		return true
	})
	return SketchStats{
		Hits:    e.sketchHits.Load(),
		Updates: e.sketchUpdates.Load(),
		Bytes:   bytes,
	}
}

// RegisterTable makes tb available for training and exact fallback.
// Registering a name that already has a table — or that trained models
// still watch (drop-then-re-register) — replaces the data wholesale: the
// catalog generation is bumped so cached plans re-resolve instead of
// serving models bound to the old data, and every model trained over the
// name is marked maximally stale so a running refresher rebuilds it from
// the new rows.
func (e *Engine) RegisterTable(tb *Table) error {
	if tb.Name == "" {
		return errors.New("dbest: table must be named")
	}
	if err := tb.Validate(); err != nil {
		return err
	}
	e.appendMu.Lock()
	_, replaced := e.snap.Load().tables[tb.Name]
	e.setTable(tb.Name, tb)
	e.appendMu.Unlock()
	if stale := e.ledger.Invalidate(tb.Name); replaced || stale > 0 {
		//lint:snapcapture writer-side: the snapshot read above ran under appendMu, and Invalidate publishes a fresh generation rather than answering from a stale one
		e.catalog.Invalidate()
	}
	return nil
}

// Table returns a registered table, or nil, as of the current snapshot.
func (e *Engine) Table(name string) *Table {
	return e.snap.Load().Table(name)
}

// DropTable removes a registered base table. Models trained from it are
// deliberately RETAINED in the catalog and keep answering model-path
// queries — DBEst needs only the models, which is the point (§3: samples
// and base data can be discarded after training). The retained models are
// force-staled: their base data is gone, so they are no longer
// refreshable, and a background refresher records a failure and backs off
// until a table is registered under the name again (re-registration then
// rebuilds them from the new rows). Exact-path queries over the dropped
// name start failing immediately. Use DropTableCascade to drop the
// dependent models along with the table.
func (e *Engine) DropTable(name string) {
	e.appendMu.Lock()
	e.setTable(name, nil)
	e.appendMu.Unlock()
	if e.ledger.Invalidate(name) > 0 {
		e.catalog.Invalidate()
	}
}

// DropTableCascade removes a registered base table AND every model trained
// from it — single-table models trained over the name, and join models
// whose persisted spec references it on either side. It returns the
// catalog keys of the dropped model sets. Unlike DropTable, nothing keeps
// answering queries for the name afterwards.
func (e *Engine) DropTableCascade(name string) []string {
	e.DropTable(name)
	removed := e.catalog.RemoveMatching(func(ms *core.ModelSet) bool {
		if ms.Table == name {
			return true
		}
		spec, err := decodeSpec(ms.Spec)
		if err != nil || spec == nil {
			return false
		}
		for _, t := range spec.watchTables() {
			if t == name {
				return true
			}
		}
		return false
	})
	for _, k := range removed {
		e.ledger.Drop(k)
	}
	return removed
}

// ModelKeys lists the raw catalog keys of all trained model sets,
// including the @s<i>/<K> member keys of sharded ensembles. Most callers
// want Models() instead, which reports one entry per logical model with
// its spec, size and staleness.
func (e *Engine) ModelKeys() []string { return e.catalog.Keys() }

// ModelBytes reports the total serialized size of all models — the memory
// footprint of DBEst's query-time state.
func (e *Engine) ModelBytes() int { return e.catalog.TotalBytes() }

// SaveModels / LoadModels persist the model catalog.
func (e *Engine) SaveModels(path string) error { return e.catalog.SaveFile(path) }

// LoadModels loads a catalog saved with SaveModels, replacing the current
// one. The staleness ledger is rebuilt from the persisted model specs:
// every model trained through CreateModel is re-registered for staleness
// tracking with a retrain that re-executes its spec, so ingestion past the
// threshold keeps refreshing models across save/load cycles. Only models
// from catalogs saved before specs existed stay untracked until rebuilt
// through CreateModel.
func (e *Engine) LoadModels(path string) error {
	if err := e.catalog.LoadFile(path); err != nil {
		return err
	}
	e.ledger.Clear()
	e.retrackLoaded()
	return nil
}

// trainInfo converts a trained model set's stats to the public TrainInfo.
func trainInfo(ms *core.ModelSet) *TrainInfo {
	return &TrainInfo{
		Key:        ms.Key(),
		NumModels:  ms.NumModels(),
		ModelBytes: ms.Stats.ModelBytes,
		SampleRows: ms.Stats.SampleRows,
		SampleTime: ms.Stats.SampleTime,
		TrainTime:  ms.Stats.TrainTime,
		Stages:     ms.Stats.Stages(),
	}
}

// JoinName is the synthetic table name under which models trained over a
// join are registered and queried.
func JoinName(left, right string) string { return left + "_join_" + right }

// AggregateResult is the answer for one select-list aggregate, e.g.
// "AVG(ss_sales_price)" with its value and per-group answers for GROUP BY.
// It is produced by the physical execution layer (internal/exec).
type AggregateResult = exec.AggregateResult

// Result is the engine's answer to one SQL query.
type Result struct {
	Aggregates []AggregateResult
	// Source reports which path answered: "model" (DBEst models), "sketch"
	// (registered sketch estimators) or "exact" (fallback to the exact QP
	// engine below DBEst).
	Source  string
	Elapsed time.Duration
}

// Query parses, plans and answers one SQL query. If the catalog has models
// for the query's column sets the models answer it; otherwise the query
// falls through to the exact engine over the registered base tables, per
// the architecture of Fig. 1. The whole call serves against one engine
// snapshot (a consistent catalog + tables view), without taking any lock.
// Plans are cached by query shape — the statement with its literals lifted
// out in one lexer pass — so a statement whose shape was seen before skips
// the parser and the catalog scan whatever its literals are, and costs the
// lexer pass, one map probe and the model evaluation.
func (e *Engine) Query(sql string) (*Result, error) {
	t0 := time.Now()
	var kb [shapeKeyBuf]byte
	key, binds, err := sqlparse.Shape(kb[:0], make(exec.Binds, 0, usualBinds), sql)
	if err != nil {
		return nil, err
	}
	snap := e.snap.Load()
	sh, err := e.resolve(snap, key, sql)
	if err != nil {
		return nil, err
	}
	res, err := e.serve(snap, sh, binds, nil)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(t0)
	return res, nil
}

// modelTable resolves which logical table name the catalog should be
// queried under.
func modelTable(q *sqlparse.Query) string {
	if q.Join != nil {
		return JoinName(q.Table, q.Join.Table)
	}
	return q.Table
}

// yColFor maps COUNT(*) and density-based aggregates onto the predicate
// column so the catalog lookup can use the density-only fallback.
func yColFor(agg sqlparse.Aggregate, xcol string) string {
	if agg.Column == "*" {
		return xcol
	}
	return agg.Column
}
