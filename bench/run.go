package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"dbest"
)

func nproc() int { return runtime.NumCPU() }

// result is one run's outcome: the line the benchmark prints last.
type result struct {
	tally
	failures []string // every check that failed; empty on a correct run
	metrics  map[string]float64
	samples  int // query latencies behind p50_us and p95_us
	clients  int
}

func (r *result) correct() bool { return len(r.failures) == 0 }

func (r *result) fail(format string, args ...interface{}) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// absorb folds one window's accounting into the result.
func (r *result) absorb(name string, w *windowResult) {
	r.add(w.queries)
	r.add(w.appends)
	if w.queries.failed+w.appends.failed > 0 {
		r.fail("%s window: %d of %d operations failed, first %s",
			name, w.queries.failed+w.appends.failed, w.queries.attempted+w.appends.attempted, w.failure)
	}
}

// runWorkload runs one workload once. A run goes set-up (repeated, for the
// setup_s median) → accuracy probe → warm-up → windows; a paced workload
// probes after its windows instead, against the table its appends grew.
//
// An untraced run times one window of cfg.seconds and reports the
// end-to-end metrics. A traced run splits the same time into a short
// untraced window (counter deltas, allocation totals, tails, and the
// untraced throughput the tracing overhead is judged against), on the two
// plain-model workloads a one-client window (scaling efficiency), and the
// traced window whose spans give the per-layer timings; then it replays the
// layer probes and writes the trace file.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var serveBin string
	if w.http {
		var err error
		if serveBin, err = buildServer(ctx, cfg.root); err != nil {
			return nil, err
		}
	}
	r := &result{metrics: map[string]float64{}, clients: w.clients(nproc())}
	m := r.metrics

	var e *env
	// setup_s is an end-to-end metric: only an untraced run repeats set-up
	// for its median.
	repeat := cfg.setups
	if cfg.trace {
		repeat = 1
	}
	setups := make([]float64, 0, repeat)
	for i := 0; i < repeat; i++ {
		if e != nil {
			e.close()
		}
		var (
			took time.Duration
			err  error
		)
		if e, took, err = setup(ctx, cfg, w, serveBin); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer e.close()
	m["setup_s"] = median(setups)
	for k, v := range e.train {
		m[k] = v
	}
	bytes, err := e.targets[0].modelBytes()
	if err != nil {
		return nil, err
	}
	m["model_bytes"] = float64(bytes)

	probe := func() {
		pr := e.probe()
		r.add(pr.tally)
		r.failures = append(r.failures, pr.failures...)
		m["rel_err_p50"] = quantile(pr.relErr, 0.5)
		m["rel_err_p95"] = quantile(pr.relErr, supportedQuantile(len(pr.relErr), 0.95))
		m["answers_digest"] = float64(pr.digest & (1<<32 - 1))
	}
	if !w.paced {
		probe()
	}
	if w.has(clsHot) {
		// Put the repeated shapes in the plan cache before anything is timed.
		for _, q := range hotShapeSet(cfg.seed, e.dom) {
			q := q
			a, err := e.targets[0].query(&q)
			ok := validAnswer(&q, a, err)
			r.record(ok)
			if !ok {
				r.fail("priming %q: %+v, %v", q.sql, a, err)
			}
		}
	}
	if w.paced {
		if err := e.eng.StartRefresher(&refreshOptions); err != nil {
			return nil, err
		}
	}
	warm := math.Min(2, 0.2*cfg.seconds)
	if _, err := e.runWindow(ctx, windowOpts{dur: time.Duration(warm * float64(time.Second)), clients: r.clients, phase: phaseWarm}); err != nil {
		return nil, err
	}

	if !cfg.trace {
		win, err := e.runWindow(ctx, windowOpts{dur: cfg.window(1), clients: r.clients, phase: phaseTimed, side: true})
		if err != nil {
			return nil, err
		}
		r.absorb("timed", win)
		s := summarize(win.lat)
		r.samples = s.N
		m["qps"] = float64(s.N) / win.elapsed.Seconds()
		m["p50_us"], m["p95_us"] = s.P50, s.P95
	} else if err := e.tracedRun(ctx, r); err != nil {
		return nil, err
	}

	if w.paced {
		if err := e.settle(ctx); err != nil {
			return nil, err
		}
		probe()
	}
	m["failed_share"] = r.share()
	return r, ctx.Err()
}

// tracedRun is the part of a traced run between warm-up and the final
// checks; it fills r.metrics with the per-layer readings.
func (e *env) tracedRun(ctx context.Context, r *result) error {
	cfg, m := e.cfg, r.metrics

	untraced, err := e.runWindow(ctx, windowOpts{dur: cfg.window(0.3), clients: r.clients, phase: phaseTimed, side: true})
	if err != nil {
		return err
	}
	r.absorb("untraced", untraced)
	s := summarize(untraced.lat)
	r.samples = s.N
	qps := float64(s.N) / untraced.elapsed.Seconds()
	m["tail.p99_us"], m["tail.p999_us"], m["tail.max_us"] = s.P99, s.P999, s.Max
	if !e.w.http && s.N > 0 {
		m["plan.allocs_per_query"] = float64(untraced.mallocs) / float64(s.N)
		m["plan.bytes_per_query"] = float64(untraced.allocBytes) / float64(s.N)
		m["runtime.gc_cycles"] = float64(untraced.gcCycles)
		m["runtime.gc_pause_ms"] = float64(untraced.gcPause) / 1e6
		m["runtime.heap_mb"] = untraced.heapMB
	}
	c := untraced.counters
	m["plan.cache_hit_ratio"] = ratio(c.PlanHits, c.PlanMisses)
	m["plan.cache_resets"] = float64(c.PlanResets)
	m["plan.cache_gen_wipes"] = float64(c.PlanGenWipes)
	m["catalog.snapshot_rebuilds"] = float64(c.SnapRebuilds)
	m["shard.pruned_ratio"] = ratio(c.ShardsPruned, c.ShardsEvaluated)
	m["core.grid_fallback_ratio"] = ratio(c.GridFallbacks, c.GridHits)
	m["router.model_share"] = ratio(c.RouterModel, c.RouterExact)
	if reqs := float64(untraced.queries.attempted + untraced.appends.attempted); e.w.http && reqs > 0 {
		m["serve.cpu_us_per_req"] = float64(untraced.serverCPU) / 1e3 / reqs
		m["serve.client_cpu_us_per_req"] = float64(untraced.clientCPU) / 1e3 / reqs
		m["serve.bytes_out_per_req"] = float64(untraced.bytesOut) / reqs
		m["serve.rss_mb"] = untraced.serverRSSMB
		m["serve.scrape_stats_us"] = median(untraced.scrapeStats)
		m["serve.scrape_models_us"] = median(untraced.scrapeModels)
	}

	if len(e.w.mix) == 1 && !e.w.http && r.clients > 1 {
		// Scaling efficiency of the read path: qps(W) ÷ (W × qps(1)).
		solo, err := e.runWindow(ctx, windowOpts{dur: cfg.window(0.2), clients: 1, phase: phaseSolo})
		if err != nil {
			return err
		}
		r.absorb("one-client", solo)
		if n := len(solo.lat); n > 0 {
			m["engine.scaling_eff"] = qps / (float64(r.clients) * float64(n) / solo.elapsed.Seconds())
		}
	}

	if !e.w.http {
		if e.twin, err = newLayerTwin(ctx, e.eng); err != nil {
			return err
		}
		for _, t := range e.targets {
			t.(*engineTarget).twin = e.twin
		}
	}
	traced, err := e.runWindow(ctx, windowOpts{dur: cfg.window(0.5), clients: r.clients, phase: phaseTraced, traced: true, side: true})
	if err != nil {
		return err
	}
	r.absorb("traced", traced)
	if qps > 0 {
		m["trace.overhead_ratio"] = float64(len(traced.lat)) / traced.elapsed.Seconds() / qps
	}
	// The write side is read over both windows: tracing does not touch an
	// append, and retrains are too few in either window alone.
	m["ingest.retrains"] = float64(c.Refreshes + traced.counters.Refreshes)
	m["ingest.retrain_failures"] = float64(c.RefreshFailures + traced.counters.RefreshFailures)
	m["ingest.retrain_ms_p50"] = median(append(untraced.retrainMs, traced.retrainMs...))
	m["ingest.generator_late_ms_max"] = math.Max(untraced.lateMaxMs, traced.lateMaxMs)
	if st := summarize(append(untraced.staleness, traced.staleness...)); st.N > 0 {
		m["ingest.staleness_p95"] = st.P95
	}
	if ap := summarize(append(untraced.appendLat, traced.appendLat...)); ap.N > 0 {
		m["ingest.append_p50_us"], m["ingest.append_p99_us"] = ap.P50, ap.P99
	}
	self := selfTimes(traced.spans)
	spanMetrics(traced.spans, self, e.w.http, m)
	path := filepath.Join(cfg.out, "trace-"+e.w.name+".jsonl")
	if err := writeTrace(path, traceHeader{e.w.name, len(traced.spans), traced.queries.attempted, traced.appends.attempted, traced.counters},
		traced.spans, self); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return runLayerProbes(e, m)
}

// spanMetrics reduces the traced window's spans to the per-layer timings:
// the median duration of each kind of span, split by class where the metric
// is per class.
func spanMetrics(spans []span, self []int64, http bool, m map[string]float64) {
	by := map[string][]float64{}
	put := func(name string, ns int64, per float64) { by[name] = append(by[name], float64(ns)/per) }
	for i, s := range spans {
		c := classes[s.Class]
		switch s.Name {
		case spanNormalize:
			put("sqlparse.normalize_ns", s.dur(), 1)
		case spanParse:
			put("sqlparse.parse_ns", s.dur(), 1)
		case spanPrepare:
			if c.fresh {
				put("plan.prepare_miss_ns", s.dur(), 1)
			} else {
				put("plan.prepare_hit_ns", s.dur(), 1)
			}
		case spanRun:
			if c.exec != "" {
				put("exec.run_"+c.exec+"_us", s.dur(), 1e3)
			}
		case spanQuery:
			if s.Class == clsWithin {
				put("router.within_p50_us", s.dur(), 1e3)
			}
		case spanEval:
			put("core.eval_avg_us", s.dur(), 1e3)
		case spanExact:
			put("exact.scan_ms", s.dur(), 1e6)
		case spanRequest:
			put("serve.overhead_us_p50", self[i], 1e3)
			put("serve."+c.name+"_p50_us", s.dur(), 1e3)
		case spanAppend:
			if http {
				put("serve.ingest_p50_us", s.dur(), 1e3)
			}
		}
	}
	for name, xs := range by {
		m[name] = median(xs)
	}
}

// refreshOptions are the refresher settings of the paced workload: scans
// four times a second, so the plain model retrains about every 3 s of
// appends, each retrain bumping the generation and wiping the plan cache.
var refreshOptions = dbest.RefreshOptions{Interval: 250 * time.Millisecond, Threshold: 0.1, Workers: 1}
