package dbest

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbest/internal/catalog"
	"dbest/internal/core"
	"dbest/internal/exact"
	"dbest/internal/exec"
	"dbest/internal/sketch"
	"dbest/internal/sqlparse"
	"dbest/internal/table"
)

// Path values reported by PreparedQuery.Path and Plan.Path.
const (
	PathModel   = exec.PathModel
	PathNominal = exec.PathNominal
	PathSketch  = exec.PathSketch
	PathExact   = exec.PathExact
)

// shape is one planned query shape — the unit the plan cache holds: a
// statement with its literals lifted out (sqlparse.Shape), compiled into a
// physical operator tree (package internal/exec) that either evaluates
// trained models or falls through to the exact engine. The operators
// address the literals by bind slot, so one shape serves every statement
// that differs from it only in literals; it is immutable after planning and
// shared by concurrent executions. A shape snapshots the catalog at plan
// time; models trained afterwards are picked up by re-planning (the plan
// cache's generation check).
type shape struct {
	// query is the statement the shape was planned from, kept for its
	// structure and bind slots; its literal values are that one statement's
	// and nothing reads them.
	query *sqlparse.Query
	plan  *exec.Plan
	gen   uint64 // catalog generation at plan time

	// Error-budget routing (router.go), set when the query carries a
	// WITHIN <p>% clause and plans onto a model path: the tolerance as a
	// fraction, the eagerly-planned exact fallback, and the calibration
	// key. exactPlan stays nil for exact/sketch plans — there is nothing to
	// route.
	tolerance float64
	exactPlan *exec.Plan
	routerKey string
}

// PreparedQuery is a query planned once and executable many times: a
// planned shape (shared with every statement of the same shape, through the
// plan cache) plus this statement's own literals as its bind vector. It is
// immutable and safe for concurrent Run calls. The shape snapshots the
// catalog at plan time; models trained afterwards are picked up by
// re-preparing (Engine.Query does this automatically).
type PreparedQuery struct {
	eng   *Engine
	sh    *shape
	binds exec.Binds
}

// Path reports which engine path the query is bound to: "model",
// "nominal-model", "sketch" or "exact".
func (p *PreparedQuery) Path() string { return p.sh.plan.Path }

// Reason explains an exact-path decision; empty on model paths.
func (p *PreparedQuery) Reason() string { return p.sh.plan.Reason }

// ModelKeys lists the catalog keys of the model sets bound to each
// aggregate (empty on the exact path).
func (p *PreparedQuery) ModelKeys() []string { return p.sh.plan.ModelKeys() }

// Render returns the plan's physical operator tree, one operator per line —
// the EXPLAIN rendering, with this statement's literals.
func (p *PreparedQuery) Render() string { return p.sh.plan.Render(p.binds) }

// Run executes the prepared query and returns its result. Each Run
// captures the engine's current snapshot, so exact-path plans observe
// tables as of the call (and the whole execution sees one consistent
// view).
func (p *PreparedQuery) Run() (*Result, error) {
	t0 := time.Now()
	res, err := p.eng.serve(p.eng.snap.Load(), p.sh, p.binds, nil)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(t0)
	return res, nil
}

// Prepare plans sql, consulting the engine's plan cache: a statement whose
// shape was planned before — whatever its literals were — skips both the
// parser and the catalog lookups. The returned PreparedQuery may be shared
// with concurrent callers.
func (e *Engine) Prepare(sql string) (*PreparedQuery, error) {
	var kb [shapeKeyBuf]byte
	key, binds, err := sqlparse.Shape(kb[:0], make(exec.Binds, 0, usualBinds), sql)
	if err != nil {
		return nil, err
	}
	sh, err := e.resolve(e.snap.Load(), key, sql)
	if err != nil {
		return nil, err
	}
	if err := sh.query.CheckBinds(binds); err != nil {
		return nil, err
	}
	return &PreparedQuery{eng: e, sh: sh, binds: binds}, nil
}

// shapeKeyBuf sizes the stack buffer a statement's shape key is written to,
// and usualBinds the bind vector allocated for it (two ranges; or a range,
// an equality and a PERCENTILE point); a longer key or vector regrows.
const (
	shapeKeyBuf = 256
	usualBinds  = 4
)

// resolve returns the planned shape of one statement under snap — the only
// place a query is planned. key is the statement's shape key: a cached plan
// of snap's generation is returned as is; on a miss sql is parsed (once),
// planned and cached.
func (e *Engine) resolve(snap *engineSnap, key []byte, sql string) (*shape, error) {
	if sh := e.plans.get(key, snap.cat.Generation()); sh != nil {
		return sh, nil
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sh, err := e.planSnap(q, snap)
	if err != nil {
		return nil, err
	}
	e.plans.put(key, sh)
	return sh, nil
}

// serve executes one planned shape with one statement's bind vector against
// snap — the one execution path behind Query, PreparedQuery.Run and
// RunBatch, and QueryBatch. It applies the grammar's value-dependent checks
// to the binds (a statement served from a shape that
// was cached for other literals is rejected exactly as the parser would
// have), routes WITHIN queries, and stamps nothing: the caller times the
// call. src, when non-nil, is the exact path's pre-opened source table
// (RunBatch opens it once for all its spans). The hot path takes no mutex.
func (e *Engine) serve(snap *engineSnap, sh *shape, binds exec.Binds, src *table.Table) (*Result, error) {
	if err := sh.query.CheckBinds(binds); err != nil {
		return nil, err
	}
	env := &exec.Env{Workers: e.workers, Tables: snap, Binds: binds, Src: src, Shards: &e.shardCtrs}
	if sh.plan.Path == PathSketch {
		// Flush pending append credits into the sketches so the estimate
		// reflects every append that completed before this query began.
		e.ledger.Sync()
		e.sketchHits.Add(1)
	}
	var (
		er  *exec.Result
		err error
	)
	if sh.exactPlan != nil {
		er, err = e.route(sh, env)
	} else {
		er, err = sh.plan.Run(env)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Aggregates: er.Aggregates, Source: er.Source}, nil
}

// planSnap resolves q against the snapshot's catalog, compiling every
// aggregate into a physical operator bound to a model set — or the whole
// query into an exact-path plan. Binding and generation tagging use the
// same snapshot, so a cached plan can never pin models from one generation
// under another generation's tag.
func (e *Engine) planSnap(q *sqlparse.Query, snap *engineSnap) (*shape, error) {
	var (
		pl  *exec.Plan
		err error
	)
	switch {
	case hasSketchAggregates(q):
		pl, err = e.planSketch(q, snap.cat)
	case len(q.Equals) > 0:
		pl, err = e.planNominal(q, snap.cat)
	default:
		pl, err = e.planModel(q, snap.cat)
	}
	if err != nil {
		return nil, err
	}
	sh := &shape{query: q, plan: pl, gen: snap.cat.Generation()}
	if q.HasTolerance && (pl.Path == PathModel || pl.Path == PathNominal) {
		// Plan the exact fallback eagerly: routing happens per execution,
		// and the fallback must not pay a parse or catalog walk then.
		if sh.exactPlan, err = exec.NewExactPlan(q, "WITHIN tolerance exceeded"); err != nil {
			return nil, err
		}
		sh.tolerance = q.Tolerance
		sh.routerKey = strings.Join(pl.ModelKeys(), "+")
	}
	return sh, nil
}

// hasSketchAggregates reports whether any select-list aggregate is a
// COUNT(DISTINCT x) or TOP k(x) — the shapes answered by registered
// sketches rather than trained density/regression models.
func hasSketchAggregates(q *sqlparse.Query) bool {
	for _, a := range q.Aggregates {
		if a.Distinct || strings.EqualFold(a.Func, "TOP") {
			return true
		}
	}
	return false
}

// planSketch binds COUNT(DISTINCT x) / TOP k(x) queries to registered
// sketches. Sketches summarize whole base tables, so any shape that narrows
// the rows — range or equality predicates, joins — falls through to the
// exact scan; GROUP BY is rejected outright. A query mixing sketch and
// model aggregates is answered exactly so all its aggregates see the same
// rows.
func (e *Engine) planSketch(q *sqlparse.Query, cat *catalog.Snapshot) (*exec.Plan, error) {
	if q.GroupBy != "" {
		return nil, fmt.Errorf("dbest: COUNT(DISTINCT) and TOP do not support GROUP BY")
	}
	if q.Join != nil {
		return exec.NewExactPlan(q, "sketches summarize base tables, not joins")
	}
	if len(q.Where) > 0 || len(q.Equals) > 0 {
		return exec.NewExactPlan(q, "predicates narrow rows a whole-table sketch cannot filter")
	}
	aggs := make([]exec.AggOperator, 0, len(q.Aggregates))
	for _, agg := range q.Aggregates {
		name := exec.DisplayName(agg)
		switch {
		case strings.EqualFold(agg.Func, "TOP"):
			ms := cat.LookupSketch(q.Table, agg.Column, string(sketch.KindTopK))
			if ms == nil || ms.Sketch == nil {
				return exec.NewExactPlan(q, "no topk sketch for "+name+" on "+q.Table)
			}
			if _, k := ms.Sketch.Params(); agg.K > k {
				return exec.NewExactPlan(q, fmt.Sprintf("sketch for %s tracks only %d candidates", name, k))
			}
			aggs = append(aggs, exec.NewSketchEval(name, ms, false, agg.K))
		case agg.Distinct && strings.EqualFold(agg.Func, "COUNT"):
			ms := cat.LookupSketch(q.Table, agg.Column, string(sketch.KindHLL))
			if ms == nil || ms.Sketch == nil {
				return exec.NewExactPlan(q, "no hll sketch for "+name+" on "+q.Table)
			}
			aggs = append(aggs, exec.NewSketchEval(name, ms, true, 0))
		default:
			return exec.NewExactPlan(q, "mixed sketch and model aggregates are answered exactly")
		}
	}
	return exec.NewPlan(PathSketch, "", exec.NewProject(PathSketch, aggs, nil)), nil
}

// planNominal binds queries with a nominal equality predicate to per-value
// models (§2.3). Supported shape: one equality on the nominal column plus
// at most one range predicate; anything else is answered exactly.
func (e *Engine) planNominal(q *sqlparse.Query, cat *catalog.Snapshot) (*exec.Plan, error) {
	if len(q.Equals) != 1 || len(q.Where) > 1 || q.GroupBy != "" || q.Join != nil {
		return exec.NewExactPlan(q, "nominal predicates support one equality plus at most one range")
	}
	eqp := q.Equals[0]
	xcol, rng := "", exec.Whole
	if len(q.Where) == 1 {
		xcol, rng = q.Where[0].Column, rangeOf(q.Where[0])
	}
	aggs := make([]exec.AggOperator, 0, len(q.Aggregates))
	for _, agg := range q.Aggregates {
		af, err := exact.ParseAggFunc(agg.Func)
		if err != nil {
			return nil, err
		}
		lookupX := xcol
		if lookupX == "" {
			lookupX = agg.Column
		}
		ms := cat.LookupNominal(q.Table, lookupX, yColFor(agg, lookupX), eqp.Column)
		if ms == nil {
			return exec.NewExactPlan(q, "no nominal model for "+agg.Func+"("+agg.Column+")")
		}
		aggs = append(aggs, exec.NewNominalEval(agg.Func+"("+agg.Column+")", af, ms,
			eqp.Slot, rng, agg.Column == ms.XCols[0] || agg.Column == "*", pointSlot(agg)))
	}
	return exec.NewPlan(PathNominal, "", exec.NewProject(PathNominal, aggs, nil)), nil
}

// planModel binds range-predicate queries to trained model sets, falling to
// the exact path when any aggregate has no matching model. Every lookup
// resolves against the one catalog snapshot, so all aggregates of a query
// bind models of the same generation.
func (e *Engine) planModel(q *sqlparse.Query, cat *catalog.Snapshot) (*exec.Plan, error) {
	tbl := modelTable(q)
	xcols := make([]string, len(q.Where))
	ranges := make([]exec.Range, len(q.Where))
	for i, pr := range q.Where {
		xcols[i] = pr.Column
		ranges[i] = rangeOf(pr)
	}
	aggs := make([]exec.AggOperator, 0, len(q.Aggregates))
	for _, agg := range q.Aggregates {
		af, err := exact.ParseAggFunc(agg.Func)
		if err != nil {
			return nil, err
		}
		name := agg.Func + "(" + agg.Column + ")"
		var op exec.AggOperator
		switch {
		case len(xcols) == 0:
			// Predicate-free queries (PERCENTILE a la HIVE, or whole-table
			// aggregates): served by any model set over the aggregate column.
			if ms := lookupAny(cat, tbl, agg.Column, q.GroupBy); ms != nil {
				yIsX := len(ms.XCols) == 1 && (agg.Column == ms.XCols[0] || agg.Column == "*")
				op = exec.NewModelEval(name, af, ms, []exec.Range{exec.Whole}, yIsX, pointSlot(agg))
				break
			}
			if q.GroupBy != "" {
				break
			}
			// Sharded fallback: a full-range merge over the whole ensemble.
			if sets := cat.LookupShardedAny(tbl, agg.Column); sets != nil {
				yIsX := agg.Column == sets[0].XCols[0] || agg.Column == "*"
				op = exec.NewShardMerge(name, af, sets, exec.Whole, yIsX, pointSlot(agg))
			}
		case len(xcols) == 1:
			if ms := cat.Lookup(tbl, xcols, yColFor(agg, xcols[0]), q.GroupBy); ms != nil {
				op = exec.NewModelEval(name, af, ms, ranges,
					agg.Column == xcols[0] || agg.Column == "*", pointSlot(agg))
				break
			}
			if q.GroupBy != "" {
				break
			}
			// Sharded fallback: bind the ensemble; each execution prunes it
			// to the shards overlapping its own statement's range.
			if sets := cat.LookupSharded(tbl, xcols[0], yColFor(agg, xcols[0])); sets != nil {
				op = exec.NewShardMerge(name, af, sets, ranges[0],
					agg.Column == xcols[0] || agg.Column == "*", pointSlot(agg))
			}
		default:
			ms, rs := cat.Lookup(tbl, xcols, agg.Column, q.GroupBy), ranges
			if ms == nil {
				// Predicate order need not match training order: try the
				// model set's own column order.
				ms, rs = lookupPermuted(cat, tbl, xcols, ranges, agg.Column, q.GroupBy)
			}
			if ms == nil {
				break
			}
			op = exec.NewModelEval(name, af, ms, rs, false, pointSlot(agg))
		}
		if op == nil {
			return exec.NewExactPlan(q, "no model for "+agg.Func+"("+agg.Column+") on "+tbl)
		}
		aggs = append(aggs, op)
	}
	return exec.NewPlan(PathModel, "", exec.NewProject(PathModel, aggs, nil)), nil
}

// rangeOf and pointSlot hand a parsed literal's bind slot to the operators:
// plans address literals by slot, never by the planned statement's values.
func rangeOf(p sqlparse.Predicate) exec.Range { return exec.Range{Lb: p.LbSlot, Ub: p.UbSlot} }

func pointSlot(a sqlparse.Aggregate) int {
	if !a.HasP {
		return exec.NoSlot
	}
	return a.PSlot
}

// lookupAny finds any univariate model set on tbl whose x or y column
// matches col (used by predicate-free queries). The search is indexed by
// table, so its cost is O(models on tbl), not O(catalog).
func lookupAny(cat *catalog.Snapshot, tbl, col, groupBy string) *core.ModelSet {
	var found *core.ModelSet
	cat.ScanTable(tbl, func(ms *core.ModelSet) bool {
		// Shard members only ever serve through the ensemble merge, and
		// sketch sets carry no density model to aggregate over.
		if ms.Sketch != nil || ms.Shards > 1 || ms.GroupBy != groupBy || len(ms.XCols) != 1 {
			return true
		}
		if ms.XCols[0] == col || ms.YCol == col || col == "*" {
			found = ms
			return false
		}
		return true
	})
	return found
}

// lookupPermuted retries a multivariate lookup with predicate columns
// reordered to the training order, scanning only tbl's model sets.
func lookupPermuted(cat *catalog.Snapshot, tbl string, xcols []string, ranges []exec.Range, ycol, groupBy string) (*core.ModelSet, []exec.Range) {
	var (
		found *core.ModelSet
		frs   []exec.Range
	)
	cat.ScanTable(tbl, func(ms *core.ModelSet) bool {
		if ms.GroupBy != groupBy || ms.YCol != ycol {
			return true
		}
		if len(ms.XCols) != len(xcols) {
			return true
		}
		pos := make(map[string]int, len(xcols))
		for i, c := range xcols {
			pos[c] = i
		}
		rs := make([]exec.Range, len(xcols))
		for j, c := range ms.XCols {
			i, ok := pos[c]
			if !ok {
				return true
			}
			rs[j] = ranges[i]
		}
		found, frs = ms, rs
		return false
	})
	return found, frs
}

// Plan describes how the engine would answer a statement, without running
// it.
type Plan struct {
	// Path is "model", "nominal-model" or "exact" for queries, or the
	// statement kind ("create-model", "drop-model", "show-models") for
	// model-definition statements.
	Path string
	// ModelKeys lists the catalog keys of the model sets that would serve
	// each aggregate (empty on the exact path and for statements).
	ModelKeys []string
	// Reason explains an exact-path decision.
	Reason string
	// Tree is the physical operator tree that would execute, one operator
	// per line (Project, ModelEval, GroupMerge, ExactScan, ...); for model
	// definitions it shows the validated spec that CreateModel would run.
	Tree string
}

// Explain reports the plan for one statement. For queries: which trained
// models would answer it (and through which physical operators), or why it
// would fall through to the exact engine. For model-definition statements:
// the validated spec (or target) the statement would execute, so a CREATE
// MODEL can be checked without paying for the training.
func (e *Engine) Explain(sql string) (*Plan, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch {
	case st.CreateModel != nil:
		spec := specFromStatement(st.CreateModel)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return &Plan{Path: "create-model", Tree: "CreateModel(" + spec.Name + ": " + spec.Summary() + ")\n"}, nil
	case st.CreateSketch != nil:
		spec := specFromSketchStatement(st.CreateSketch)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return &Plan{Path: "create-sketch", Tree: "CreateSketch(" + spec.Name + ": " + spec.Summary() + ")\n"}, nil
	case st.DropModel != nil:
		return &Plan{Path: "drop-model", Tree: "DropModel(" + st.DropModel.Name + ")\n"}, nil
	case st.ShowModels:
		return &Plan{Path: "show-models", Tree: "ShowModels\n"}, nil
	}
	// SELECT: go through Prepare so repeated explains share the plan cache.
	p, err := e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Path: p.Path(), Reason: p.Reason(), Tree: p.Render()}
	if keys := p.ModelKeys(); len(keys) > 0 {
		plan.ModelKeys = keys
	}
	return plan, nil
}

// PlanCacheStats reports plan-cache effectiveness counters. Hits and Misses
// are cumulative for the engine's lifetime — a generation wipe or capacity
// reset never zeroes them.
type PlanCacheStats struct {
	Hits   uint64 `json:"plan_cache_hits"`   // statements whose shape was served from the cache
	Misses uint64 `json:"plan_cache_misses"` // statements whose shape was planned from scratch
	// Evictions counts every cached plan dropped, whichever way it went:
	// capacity resets or generation wipes.
	Evictions uint64 `json:"plan_cache_evictions"`
	// Resets counts capacity-triggered wholesale clears in put.
	Resets uint64 `json:"plan_cache_resets"`
	// GenerationWipes counts whole-cache invalidations caused by catalog
	// mutations (Train / LoadModels / Remove bumping the generation).
	GenerationWipes uint64 `json:"plan_cache_generation_wipes"`
	Entries         int    `json:"plan_cache_entries"` // shapes currently cached
}

// PlanCacheStats returns a snapshot of the engine's plan-cache counters.
// Every counter is atomic, so polling it (the /stats endpoint) never
// contends with serving.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return e.plans.stats()
}

// defaultPlanCacheSize bounds the plan cache; production query workloads
// have far fewer distinct shapes than this.
const defaultPlanCacheSize = 1024

// planCache maps shape keys (sqlparse.Shape: the canonical statement with
// its literals lifted out) to planned shapes. The key is the canonical text
// itself, so distinct shapes cannot collide. Lookups are lock-free: a
// generation check on an atomic counter, one atomic map load, one map read.
// Writers — planning misses and generation wipes — serialize on a single
// mutex and publish a copy-on-write map (entries are shapes, so there are
// few of them and few puts); the first lookup that observes a new catalog
// generation wipes the map, which is how Train/LoadModels/Remove invalidate
// every stale plan (and release the model sets those plans pin) without the
// mutation path knowing about the cache. All counters are atomics, so
// stats() never touches the writer mutex either.
type planCache struct {
	max    int // <= 0 disables caching
	gen    atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64
	// evictions counts every cached plan dropped, via capacity resets or
	// generation wipes; resets and wipes count the two wholesale clears.
	evictions atomic.Uint64
	resets    atomic.Uint64
	wipes     atomic.Uint64

	mu     sync.Mutex // serializes writers (put, generation advance)
	shapes atomic.Pointer[map[string]*shape]
}

func newPlanCache(max int) *planCache {
	pc := &planCache{max: max}
	pc.shapes.Store(&map[string]*shape{})
	return pc
}

// get returns the cached shape for key planned under exactly generation
// gen, or nil. The hit path takes no mutex and — key being looked up as
// string(key) in place — allocates nothing. A caller observing a newer
// generation than the cache wipes it first (the one write on the read path,
// taken once per catalog mutation); a caller with an older generation than
// a cached entry simply misses.
func (pc *planCache) get(key []byte, gen uint64) *shape {
	if pc.max <= 0 {
		return nil
	}
	// Only a newer generation wipes: a reader that loaded an older
	// generation before a concurrent Train committed must not destroy the
	// plans already cached for the new one (the per-entry check below
	// keeps it from being served a stale plan).
	if gen > pc.gen.Load() {
		pc.advance(gen)
	}
	sh := (*pc.shapes.Load())[string(key)]
	if sh == nil || sh.gen != gen {
		pc.misses.Add(1)
		return nil
	}
	pc.hits.Add(1)
	return sh
}

// drop empties the cache, counting what it held as evictions. Callers hold
// mu.
func (pc *planCache) drop() (dropped int) {
	dropped = len(*pc.shapes.Load())
	pc.evictions.Add(uint64(dropped))
	pc.shapes.Store(&map[string]*shape{})
	return dropped
}

// advance wipes the cache and moves it to generation gen. It runs at most
// once per catalog mutation.
func (pc *planCache) advance(gen uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if gen <= pc.gen.Load() {
		return // another reader advanced first
	}
	if pc.drop() > 0 {
		pc.wipes.Add(1)
	}
	pc.gen.Store(gen)
}

// put caches a freshly planned shape (a no-op when the plan is stale or
// caching is disabled).
func (pc *planCache) put(key []byte, sh *shape) {
	if pc.max <= 0 {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if sh.gen < pc.gen.Load() {
		// Planned under an older generation than the cache tracks: caching
		// it would overwrite (or pollute) the fresher working set only to
		// be evicted on first lookup.
		return
	}
	cur := *pc.shapes.Load()
	if len(cur) >= pc.max {
		// Wholesale reset: hot shapes re-plan with one parse each, and the
		// hit path stays a single map read with no LRU bookkeeping. The
		// reset is not silent — Resets/Evictions record the cost.
		pc.drop()
		pc.resets.Add(1)
		cur = nil
	}
	next := make(map[string]*shape, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[string(key)] = sh
	pc.shapes.Store(&next)
}

func (pc *planCache) stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:            pc.hits.Load(),
		Misses:          pc.misses.Load(),
		Evictions:       pc.evictions.Load(),
		Resets:          pc.resets.Load(),
		GenerationWipes: pc.wipes.Load(),
		Entries:         len(*pc.shapes.Load()),
	}
}
