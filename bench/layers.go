package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"dbest"
	"dbest/internal/core"
	"dbest/internal/exact"
	"dbest/internal/sketch"
	"dbest/internal/sqlparse"
	"dbest/internal/table"
)

// This file holds every call the benchmark makes into a layer's public
// function for the sake of measuring that layer, so an API change in a
// layer needs a fix here and nowhere else: the staged calls of a traced
// request, the engine's boundary counters, the sibling replays, and the
// table of single-goroutine replay loops behind the per-layer metrics the
// traced window cannot give.

func layerNormalize(sql string) string { return sqlparse.Normalize(sql) }

func layerParse(sql string) error {
	_, err := sqlparse.Parse(sql)
	return err
}

func layerPrepare(eng *dbest.Engine, sql string) (*dbest.PreparedQuery, error) {
	return eng.Prepare(sql)
}

func layerRun(p *dbest.PreparedQuery) (*dbest.Result, error) { return p.Run() }

// engineCounters reads the engine's cumulative boundary counters.
func engineCounters(eng *dbest.Engine) counters {
	pc, sn, sh := eng.PlanCacheStats(), eng.SnapshotStats(), eng.ShardStats()
	ek, rt, rs := eng.EvalKernelStats(), eng.RouterStats(), eng.RefreshStats()
	return counters{
		PlanHits: pc.Hits, PlanMisses: pc.Misses, PlanResets: pc.Resets, PlanGenWipes: pc.GenerationWipes,
		SnapRebuilds:    sn.Rebuilds,
		ShardsEvaluated: sh.Evaluated, ShardsPruned: sh.Pruned,
		GridHits: ek.GridHits, GridFallbacks: ek.GridFallbacks,
		RouterModel: rt.ModelHits, RouterExact: rt.ExactFallbacks,
		Refreshes: rs.Refreshes, RefreshFailures: rs.Failures,
	}
}

// layerTwin replays the layers under the engine beside a traced request:
// the parser, the core kernel on a core.Train'ed twin of the plain model,
// and the exact scan on the live table.
type layerTwin struct {
	eng   *dbest.Engine
	plain *core.ModelSet
}

func newLayerTwin(ctx context.Context, eng *dbest.Engine) (*layerTwin, error) {
	spec := modelSpecs["plain"]
	ms, err := core.TrainContext(ctx, eng.Table(factTable), spec.XCols, spec.YCol,
		&core.TrainConfig{SampleSize: spec.SampleSize, Seed: spec.Seed})
	if err != nil {
		return nil, fmt.Errorf("train the core twin of the plain model: %w", err)
	}
	return &layerTwin{eng: eng, plain: ms}, nil
}

func (t *layerTwin) evalPlain(af exact.AggFunc, lb, ub, p float64) error {
	yIsX := af == exact.Variance || af == exact.StdDev || af == exact.Percentile
	_, err := t.plain.EvaluateUni(af, lb, ub, yIsX, &core.EvalOptions{P: p})
	return err
}

// replay records sibling spans (parent 0) for the layers under request
// req: always the parser; the core kernel when q is a plain-model query;
// and, on every 16th replay only because one scan costs as much as twenty
// model answers, the exact scan when q has a scalar or grouped oracle.
func (t *layerTwin) replay(q *query, req uint64, tr *spanBuf) {
	cls := uint8(q.class)
	t0 := time.Now()
	_ = layerParse(q.sql) // the SQL already parsed inside Prepare; only the time is wanted
	tr.add(req, 10, 0, spanParse, cls, t0, time.Now())
	if classes[q.class].exec == "plain" {
		t0 = time.Now()
		_ = t.evalPlain(exact.Avg, q.lb, q.ub, 0) // timed only: AVG over the request's span, whatever it aggregated
		tr.add(req, 11, 0, spanEval, cls, t0, time.Now())
	}
	if req%256 == 0 && (q.kind == kindScalar || q.kind == kindGrouped) {
		t0 = time.Now()
		_, _ = exact.Query(t.eng.Table(factTable), q.request()) // timed only; the probe compares answers
		tr.add(req, 12, 0, spanExact, cls, t0, time.Now())
	}
}

// layerProbe is one single-goroutine replay loop. prep builds the inputs
// for n calls and returns the call to time; the median call time, divided
// by per, feeds metric, and the allocations per call feed allocs.
type layerProbe struct {
	metric string  // "" when only allocations are wanted
	per    float64 // nanoseconds per unit of metric
	allocs string  // "" when only the time is wanted
	calls  int
	needs  func(e *env) bool // nil: every workload
	prep   func(e *env, n int) (func(i int) error, error)
}

func inProcess(e *env) bool { return !e.w.http }

func hasHLL(e *env) bool { return e.w.has(clsHLL) }

// hllAndValues is an empty HLL sketch and a column of values to feed it.
func hllAndValues(e *env) (*sketch.Sketch, []float64, error) {
	sk, err := sketch.New(sketch.KindHLL, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	xs, err := e.tb.Floats(colCost)
	return sk, xs, err
}

var layerProbes = []layerProbe{
	{allocs: "sqlparse.normalize_allocs", calls: 2000, needs: inProcess,
		prep: func(e *env, n int) (func(i int) error, error) {
			sqls := e.sampleSQL(256)
			return func(i int) error { layerNormalize(sqls[i%len(sqls)]); return nil }, nil
		}},
	{allocs: "sqlparse.parse_allocs", calls: 2000, needs: inProcess,
		prep: func(e *env, n int) (func(i int) error, error) {
			sqls := e.sampleSQL(256)
			return func(i int) error { return layerParse(sqls[i%len(sqls)]) }, nil
		}},
	{metric: "plan.query_hit_ns", per: 1, calls: 20000, needs: inProcess,
		prep: func(e *env, n int) (func(i int) error, error) {
			shapes := hotShapeSet(e.cfg.seed, e.dom)
			return func(i int) error {
				_, err := e.eng.Query(shapes[i%len(shapes)].sql)
				return err
			}, nil
		}},
	{metric: "plan.batch64_us", per: 1e3, calls: 30, needs: inProcess,
		prep: func(e *env, n int) (func(i int) error, error) {
			// 64 statements, 32 distinct, fresh per call: half of a batch
			// plans from scratch and half repeats a statement of the batch.
			g := newGenerator(e.cfg.seed, 0, phaseLayers, []mixEntry{{clsSliding, 1}}, e.dom, nil)
			batches := make([][]string, n)
			for b := range batches {
				for i := 0; i < 32; i++ {
					sql := g.next().sql
					batches[b] = append(batches[b], sql, sql)
				}
			}
			return func(i int) error {
				for _, r := range e.eng.QueryBatch(batches[i]) {
					if r.Err != nil {
						return r.Err
					}
				}
				return nil
			}, nil
		}},
	{metric: "core.eval_pct_us", per: 1e3, calls: 200, needs: func(e *env) bool { return e.twin != nil },
		prep: func(e *env, n int) (func(i int) error, error) {
			g := newGenerator(e.cfg.seed, 1, phaseLayers, nil, e.dom, nil)
			return func(i int) error {
				lb, ub := g.span(colDate, narrowFrac)
				return e.twin.evalPlain(exact.Percentile, lb, ub, 0.5)
			}, nil
		}},
	{metric: "sketch.absorb_ns_per_row", per: 4096, calls: 50, needs: hasHLL,
		prep: func(e *env, n int) (func(i int) error, error) {
			sk, xs, err := hllAndValues(e)
			if err != nil {
				return nil, err
			}
			return func(i int) error {
				off := (i * 4096) % (len(xs) - 4096)
				sk.AddFloats(xs[off : off+4096])
				return nil
			}, nil
		}},
	{metric: "sketch.hll_estimate_us", per: 1e3, calls: 200, needs: hasHLL,
		prep: func(e *env, n int) (func(i int) error, error) {
			sk, xs, err := hllAndValues(e)
			if err != nil {
				return nil, err
			}
			sk.AddFloats(xs)
			return func(i int) error {
				_, err := sk.Distinct()
				return err
			}, nil
		}},
	{metric: "catalog.save_ms", per: 1e6, calls: 5,
		prep: func(e *env, n int) (func(i int) error, error) {
			path := filepath.Join(e.tmp, "probe-catalog.bin")
			return func(i int) error { return e.eng.SaveModels(path) }, nil
		}},
	{metric: "catalog.load_ms", per: 1e6, calls: 5,
		prep: func(e *env, n int) (func(i int) error, error) {
			path := filepath.Join(e.tmp, "probe-catalog.bin")
			if err := e.eng.SaveModels(path); err != nil {
				return nil, err
			}
			return func(i int) error {
				fresh := dbest.New(nil)
				if err := fresh.RegisterTable(e.tb); err != nil {
					return err
				}
				return fresh.LoadModels(path)
			}, nil
		}},
	{metric: "table.load_csv_ms", per: 1e6, calls: 3, needs: func(e *env) bool { return e.csv != "" },
		prep: func(e *env, n int) (func(i int) error, error) {
			return func(i int) error {
				_, err := table.LoadCSV(factTable, e.csv)
				return err
			}, nil
		}},
}

// runLayerProbes runs every replay loop the workload's env supports and
// stores the readings in m.
func runLayerProbes(e *env, m map[string]float64) error {
	for _, p := range layerProbes {
		if p.needs != nil && !p.needs(e) {
			continue
		}
		name := p.metric
		if name == "" {
			name = p.allocs
		}
		call, err := p.prep(e, p.calls)
		if err != nil {
			return fmt.Errorf("layer probe %s: %w", name, err)
		}
		lat := make([]float64, 0, p.calls)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < p.calls; i++ {
			t0 := time.Now()
			err := call(i)
			lat = append(lat, float64(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("layer probe %s: %w", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if p.metric != "" {
			m[p.metric] = median(lat) / p.per
		}
		if p.allocs != "" {
			m[p.allocs] = float64(after.Mallocs-before.Mallocs) / float64(p.calls)
		}
	}
	return nil
}
