// The load subcommand is the serving-side benchmark driver: instead of
// regenerating paper figures it hammers one in-process engine with a
// zipf-skewed mix of cached query shapes plus a configurable fraction of
// ingest batches, sweeping worker counts and reporting throughput and
// latency percentiles as JSON — the perf trajectory record (BENCH_<n>.json)
// for the contention work on the read path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/exact"
	"dbest/internal/table"
	"dbest/internal/workload"
)

// loadConfig is the harness configuration, echoed into the JSON report so a
// checked-in BENCH file is self-describing.
type loadConfig struct {
	Rows        int     `json:"rows"`
	SampleSize  int     `json:"sample_size"`
	Shapes      int     `json:"shapes"`
	ZipfS       float64 `json:"zipf_s"`
	IngestRatio float64 `json:"ingest_ratio"`
	IngestBatch int     `json:"ingest_batch"`
	// DistinctRatio is the fraction of query operations answered by the
	// sketch path — alternating COUNT(DISTINCT) and TOP-K shapes over
	// sketches built before the sweep. The shape-mix lever for measuring
	// how sketch reads and absorb-on-ingest writes mix with model serving.
	DistinctRatio float64 `json:"distinct_ratio"`
	DurationSec   float64 `json:"duration_sec"`
	Seed          int64   `json:"seed"`
	// UniqueSpans jitters every issued query's [lb, ub], so each query
	// carries literals never seen before: its shape hits the plan cache,
	// and its evaluation integrates the model over a fresh range — the
	// regime that separates the grid kernel from per-query quadrature.
	UniqueSpans bool `json:"unique_spans"`
	// GridKnots is the evaluation-grid budget the serving model trains
	// with (0 default, -1 off) — the A/B lever for kernel comparisons.
	GridKnots int `json:"grid_knots"`
	// TolerancePct, when > 0, appends a WITHIN <p>% error budget to every
	// model-path query, exercising the error-budget router: queries whose
	// predicted error exceeds the budget fall through to the exact scan.
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
}

// latencySummary reports percentiles over one run's per-query latencies.
type latencySummary struct {
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

// loadRun is one worker-count level of the sweep.
type loadRun struct {
	Workers     int            `json:"workers"`
	Queries     int            `json:"queries"`
	Ingests     int            `json:"ingests"`
	Errors      int            `json:"errors"`
	QueriesPerS float64        `json:"queries_per_sec"`
	OpsPerS     float64        `json:"ops_per_sec"`
	Latency     latencySummary `json:"query_latency"`
	CacheHits   uint64         `json:"plan_cache_hits"`
	CacheMisses uint64         `json:"plan_cache_misses"`
	// Evaluation-kernel counter deltas over the measured window: which
	// kernel actually served the integrals.
	GridHits         uint64 `json:"grid_hits"`
	GridFallbacks    uint64 `json:"grid_fallbacks"`
	QuadNonconverged uint64 `json:"quad_nonconverged"`
	// Sketch counter deltas over the measured window: queries the sketch
	// path answered and values the absorb path folded in from ingest.
	SketchHits    uint64 `json:"sketch_hits"`
	SketchUpdates uint64 `json:"sketch_updates"`
	// Error-budget router deltas over the measured window (all zero unless
	// -tolerance is set): tolerance queries served from the models vs
	// routed to the exact scan.
	RouterModelHits uint64 `json:"router_model_hits"`
	RouterFallbacks uint64 `json:"router_exact_fallbacks"`
}

// loadReport is the full JSON document the subcommand emits.
type loadReport struct {
	Bench     string     `json:"bench"`
	Timestamp string     `json:"timestamp"`
	Config    loadConfig `json:"config"`
	Runs      []loadRun  `json:"runs"`
}

// runLoad is the "dbest-bench load" entry point.
func runLoad(args []string) {
	fs := flag.NewFlagSet("dbest-bench load", flag.ExitOnError)
	var (
		rows    = fs.Int("rows", 200_000, "fact-table rows")
		sample  = fs.Int("sample", 10_000, "training sample size")
		shapes  = fs.Int("shapes", 60, "distinct query shapes (spread across COUNT/SUM/AVG/VARIANCE/STDDEV)")
		zipfS   = fs.Float64("zipf", 1.2, "zipf skew exponent for shape selection (> 1)")
		ingest  = fs.Float64("ingest", 0.02, "fraction of operations that are ingest batches")
		dstinct = fs.Float64("distinct", 0, "fraction of queries answered by sketches (COUNT(DISTINCT)/TOP-K shape mix)")
		batch   = fs.Int("batch", 64, "rows per ingest batch")
		workers = fs.String("workers", "1,2,4,8,16", "comma-separated worker counts to sweep")
		dur     = fs.Duration("dur", 5*time.Second, "measured duration per worker level")
		warmup  = fs.Duration("warmup", 500*time.Millisecond, "warmup before each measured run")
		seed    = fs.Int64("seed", 1, "deterministic RNG seed")
		unique  = fs.Bool("unique-spans", false, "jitter every query's range so no two queries share their literals (model-evaluation kernel benchmark)")
		grid    = fs.Int("grid", 0, "evaluation-grid knot budget for the serving model (0 default, -1 off)")
		tol     = fs.Float64("tolerance", 0, "WITHIN error budget in percent appended to every query (0 = off; exercises the model/exact router)")
		out     = fs.String("out", "", "also write the JSON report to this file")
		smoke   = fs.Bool("smoke", false, "small fast run for CI (overrides rows/dur/workers)")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *smoke {
		*rows, *dur, *warmup, *workers = 20_000, 2*time.Second, 200*time.Millisecond, "1,4"
	}
	if *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "dbest-bench load: -zipf must be > 1")
		os.Exit(2)
	}
	counts, err := parseWorkerList(*workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbest-bench load: %v\n", err)
		os.Exit(2)
	}

	report, err := loadBench(loadConfig{
		Rows: *rows, SampleSize: *sample, Shapes: *shapes, ZipfS: *zipfS,
		IngestRatio: *ingest, IngestBatch: *batch, DistinctRatio: *dstinct,
		DurationSec: dur.Seconds(),
		Seed:        *seed, UniqueSpans: *unique, GridKnots: *grid,
		TolerancePct: *tol,
		GoMaxProcs:   runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}, counts, *dur, *warmup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbest-bench load: %v\n", err)
		os.Exit(1)
	}
	enc, _ := json.MarshalIndent(report, "", "  ")
	enc = append(enc, '\n')
	os.Stdout.Write(enc)
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dbest-bench load: %v\n", err)
			os.Exit(1)
		}
	}
}

// parseWorkerList parses "1,2,4" into worker counts.
func parseWorkerList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -workers list")
	}
	return out, nil
}

// loadBench builds the engine, trains the serving model, generates the
// zipf-weighted shape population and runs the worker sweep.
func loadBench(cfg loadConfig, counts []int, dur, warmup time.Duration) (*loadReport, error) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: cfg.Rows, Seed: cfg.Seed})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		return nil, err
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: tb.Name, XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: cfg.SampleSize, Seed: cfg.Seed, GridKnots: cfg.GridKnots,
	}); err != nil {
		return nil, err
	}

	perAF := cfg.Shapes / 5
	if perAF < 1 {
		perAF = 1
	}
	qs, err := workload.Generate(tb, workload.Spec{
		XCol: "ss_sold_date_sk", YCol: "ss_sales_price",
		AFs:       []exact.AggFunc{exact.Count, exact.Sum, exact.Avg, exact.Variance, exact.StdDev},
		RangeFrac: 0.05, PerAF: perAF, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	sqls := make([]string, len(qs))
	for i, q := range qs {
		sqls[i] = q.SQL(tb.Name) + withinSuffix(cfg)
		res, err := eng.Query(sqls[i])
		if err != nil {
			return nil, fmt.Errorf("shape %q: %w", sqls[i], err)
		}
		// With a tolerance the router legitimately answers some shapes from
		// the exact scan — that split is what the run measures — so the
		// model-serving priming assertion only applies without one.
		if cfg.TolerancePct <= 0 && res.Source != "model" {
			return nil, fmt.Errorf("shape %q fell to the %s path; the harness measures model serving", sqls[i], res.Source)
		}
	}
	// Sketch shapes for the -distinct mix, over sketches built up front so
	// the sweep measures serving plus absorb, not sketch construction.
	var sketchSQLs []string
	if cfg.DistinctRatio > 0 {
		for _, stmt := range []string{
			"CREATE SKETCH bench_dates ON store_sales(ss_sold_date_sk) TYPE HLL",
			"CREATE SKETCH bench_channels ON store_sales(ss_channel) TYPE TOPK K 3",
		} {
			if _, err := eng.Exec(stmt); err != nil {
				return nil, err
			}
		}
		sketchSQLs = []string{
			"SELECT COUNT(DISTINCT ss_sold_date_sk) FROM store_sales",
			"SELECT TOP 3(ss_channel) FROM store_sales",
		}
		for _, sql := range sketchSQLs {
			res, err := eng.Query(sql)
			if err != nil {
				return nil, fmt.Errorf("sketch shape %q: %w", sql, err)
			}
			if res.Source != "sketch" {
				return nil, fmt.Errorf("sketch shape %q fell to the %s path", sql, res.Source)
			}
		}
	}
	// Jittered spans need the x domain to stay inside.
	xlo, xhi, err := columnDomain(tb, "ss_sold_date_sk")
	if err != nil {
		return nil, err
	}
	ingestRows := sampleRows(tb, cfg.IngestBatch, cfg.Seed)

	report := &loadReport{
		Bench:     "zipf-load",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Config:    cfg,
	}
	for _, w := range counts {
		run := sweepLevel(eng, tb.Name, qs, sqls, sketchSQLs, xlo, xhi, ingestRows, cfg, w, dur, warmup)
		report.Runs = append(report.Runs, run)
		fmt.Fprintf(os.Stderr, "workers=%-3d %10.0f q/s  p50=%.0fus p95=%.0fus p99=%.0fus  (%d queries, %d ingests, %d errors)\n",
			w, run.QueriesPerS, run.Latency.P50Us, run.Latency.P95Us, run.Latency.P99Us,
			run.Queries, run.Ingests, run.Errors)
	}
	return report, nil
}

// withinSuffix renders the WITHIN clause the -tolerance lever appends to
// every generated query ("" when the lever is off).
func withinSuffix(cfg loadConfig) string {
	if cfg.TolerancePct <= 0 {
		return ""
	}
	return fmt.Sprintf(" WITHIN %g%%", cfg.TolerancePct)
}

// sampleRows extracts n real rows from tb as AppendRow-shaped value slices,
// so ingest batches match the live schema exactly.
func sampleRows(tb *table.Table, n int, seed int64) [][]interface{} {
	rng := rand.New(rand.NewSource(seed + 97))
	rows := make([][]interface{}, n)
	for i := range rows {
		r := rng.Intn(tb.NumRows())
		row := make([]interface{}, len(tb.Columns))
		for j, c := range tb.Columns {
			switch c.Type {
			case table.Float64:
				row[j] = c.Float(r)
			case table.Int64:
				row[j] = c.Ints[r]
			default:
				row[j] = c.Str(r)
			}
		}
		rows[i] = row
	}
	return rows
}

// columnDomain returns the [min, max] of a float column.
func columnDomain(tb *table.Table, col string) (lo, hi float64, err error) {
	xs, err := tb.Floats(col)
	if err != nil {
		return 0, 0, err
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, nil
}

// sweepLevel runs one worker-count level: warmup, then a measured window in
// which every worker issues zipf-picked queries (and the configured fraction
// of ingest batches) in a closed loop. Under UniqueSpans the zipf pick only
// selects the aggregate/width template; the span itself is re-jittered per
// issued query, so every statement evaluates a range of its own.
func sweepLevel(eng *dbest.Engine, tbl string, qs []workload.Query, sqls, sketchSQLs []string,
	xlo, xhi float64, ingestRows [][]interface{},
	cfg loadConfig, workers int, dur, warmup time.Duration) loadRun {
	type workerOut struct {
		lats             []time.Duration
		queries, ingests int
		errors           int
	}
	runWindow := func(window time.Duration, measure bool) []workerOut {
		outs := make([]workerOut, workers)
		deadline := time.Now().Add(window)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				o := &outs[w]
				seed := cfg.Seed + int64(w)*7919 + boolInt64(measure)
				if cfg.UniqueSpans {
					// Levels must not replay each other's span sequences.
					seed += int64(workers) * 104729
				}
				rng := rand.New(rand.NewSource(seed))
				zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(sqls)-1))
				if measure {
					o.lats = make([]time.Duration, 0, 1<<16)
				}
				for time.Now().Before(deadline) {
					if cfg.IngestRatio > 0 && rng.Float64() < cfg.IngestRatio {
						if _, err := eng.Append(tbl, ingestRows); err != nil {
							o.errors++
						} else {
							o.ingests++
						}
						continue
					}
					if len(sketchSQLs) > 0 && rng.Float64() < cfg.DistinctRatio {
						t0 := time.Now()
						if _, err := eng.Query(sketchSQLs[rng.Intn(len(sketchSQLs))]); err != nil {
							o.errors++
							continue
						}
						if measure {
							o.lats = append(o.lats, time.Since(t0))
						}
						o.queries++
						continue
					}
					i := zipf.Uint64()
					sql := sqls[i]
					if cfg.UniqueSpans {
						q := qs[i]
						width := q.Ub - q.Lb
						q.Lb = xlo + rng.Float64()*(xhi-xlo-width)
						q.Ub = q.Lb + width
						sql = q.SQL(tbl) + withinSuffix(cfg)
					}
					t0 := time.Now()
					_, err := eng.Query(sql)
					if err != nil {
						o.errors++
						continue
					}
					if measure {
						o.lats = append(o.lats, time.Since(t0))
					}
					o.queries++
				}
			}(w)
		}
		wg.Wait()
		return outs
	}

	if warmup > 0 {
		runWindow(warmup, false)
	}
	stats0 := eng.PlanCacheStats()
	ek0 := eng.EvalKernelStats()
	sk0 := eng.SketchStats()
	rt0 := eng.RouterStats()
	t0 := time.Now()
	outs := runWindow(dur, true)
	elapsed := time.Since(t0).Seconds()
	stats1 := eng.PlanCacheStats()
	ek1 := eng.EvalKernelStats()
	sk1 := eng.SketchStats()
	rt1 := eng.RouterStats()

	run := loadRun{Workers: workers}
	var all []time.Duration
	for _, o := range outs {
		run.Queries += o.queries
		run.Ingests += o.ingests
		run.Errors += o.errors
		all = append(all, o.lats...)
	}
	run.QueriesPerS = float64(run.Queries) / elapsed
	run.OpsPerS = float64(run.Queries+run.Ingests) / elapsed
	run.Latency = summarizeLatencies(all)
	run.CacheHits = stats1.Hits - stats0.Hits
	run.CacheMisses = stats1.Misses - stats0.Misses
	run.GridHits = ek1.GridHits - ek0.GridHits
	run.GridFallbacks = ek1.GridFallbacks - ek0.GridFallbacks
	run.QuadNonconverged = ek1.QuadNonconverged - ek0.QuadNonconverged
	run.SketchHits = sk1.Hits - sk0.Hits
	run.SketchUpdates = sk1.Updates - sk0.Updates
	run.RouterModelHits = rt1.ModelHits - rt0.ModelHits
	run.RouterFallbacks = rt1.ExactFallbacks - rt0.ExactFallbacks
	return run
}

func boolInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// summarizeLatencies computes percentiles in microseconds.
func summarizeLatencies(lats []time.Duration) latencySummary {
	if len(lats) == 0 {
		return latencySummary{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pick := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Microsecond)
	}
	return latencySummary{
		P50Us: pick(0.50),
		P95Us: pick(0.95),
		P99Us: pick(0.99),
		MaxUs: float64(lats[len(lats)-1]) / float64(time.Microsecond),
	}
}
