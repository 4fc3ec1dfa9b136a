package dbest_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/exact"
)

// Accuracy-regression harness: trains on deterministic datagen tables and
// asserts that model COUNT/SUM/AVG answers stay within fixed per-aggregate
// relative-error bounds against the exact path — for an unsharded model
// and for sharded ensembles at K = 1, 4 and 16. The bounds are shared by
// every configuration, so sharding is held to error no looser than
// unsharded; a regression in training, evaluation, or the shard merge
// fails CI here before it ships. Gated behind -short because it trains
// 4 model configurations (~10 s).

// accuracyBounds are the fixed per-aggregate relative-error ceilings,
// shared by every configuration. Measured worst cases on the seed data
// (deterministic, see the t.Logf output under -v): COUNT ≤ 0.048,
// SUM ≤ 0.051, AVG ≤ 0.060 — the AVG worst case is the unsharded model on
// the narrowest window; K=16 sharding cuts it to 0.003.
var accuracyBounds = map[exact.AggFunc]float64{
	exact.Count: 0.08,
	exact.Sum:   0.08,
	exact.Avg:   0.07,
}

// accuracyRanges is the query workload: windows of varying width across
// the ss_sold_date_sk domain (0..1823), from ~2% to the full domain.
var accuracyRanges = [][2]float64{
	{100, 140},
	{400, 520},
	{850, 1000},
	{200, 900},
	{1200, 1800},
	{0, 1823},
}

// sketchLifecycles builds one engine per sketch lifecycle the accuracy
// harness must hold to the same bounds: fresh (sketch built over the full
// table), absorbed (built over the first half, second half folded in via
// Append) and reloaded (fresh engine gob-round-tripped through
// SaveModels/LoadModels). rows is split at len(rows)/2 for the absorbed
// case; create runs the CREATE SKETCH statement against an engine whose
// table holds the given rows.
func sketchLifecycles(t *testing.T, full *dbest.Table, firstHalf *dbest.Table, appendRows [][]interface{}, create string) map[string]*dbest.Engine {
	t.Helper()
	mk := func(tb *dbest.Table) *dbest.Engine {
		eng := dbest.New(nil)
		if err := eng.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Exec(create); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	fresh := mk(full)

	absorbed := mk(firstHalf)
	if _, err := absorbed.Append(firstHalf.Name, appendRows); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sketches.bin")
	if err := fresh.SaveModels(path); err != nil {
		t.Fatal(err)
	}
	reloaded := dbest.New(nil)
	if err := reloaded.RegisterTable(full); err != nil {
		t.Fatal(err)
	}
	if err := reloaded.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	return map[string]*dbest.Engine{"fresh": fresh, "absorbed": absorbed, "reloaded": reloaded}
}

// TestSketchAccuracyRegression holds the sketch estimators to fixed error
// bounds across all three lifecycles: HLL COUNT(DISTINCT) within 2%
// relative error at the default precision, and Count-Min TOP-10 recall of
// at least 0.9 against the exact heavy-hitter set on a skewed column.
func TestSketchAccuracyRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("sketch accuracy harness builds 6 engines; skipped in -short")
	}

	// HLL workload: 60000 distinct values, each appearing twice, laid out
	// so the first half of the rows covers values 0..29999 and the second
	// half 30000..59999 (the absorbed lifecycle appends only novel values).
	const distinct = 60000
	xs := make([]float64, 0, 2*distinct)
	for i := 0; i < distinct; i++ {
		xs = append(xs, float64(i), float64(i))
	}
	full := dbest.NewTable("hd")
	full.AddFloatColumn("x", append([]float64(nil), xs...))
	firstHalf := dbest.NewTable("hd")
	firstHalf.AddFloatColumn("x", append([]float64(nil), xs[:distinct]...))
	appendRows := make([][]interface{}, distinct)
	for i, v := range xs[distinct:] {
		appendRows[i] = []interface{}{v}
	}
	for name, eng := range sketchLifecycles(t, full, firstHalf, appendRows,
		"CREATE SKETCH xd ON hd(x) TYPE HLL PRECISION 14") {
		res, err := eng.Query("SELECT COUNT(DISTINCT x) FROM hd")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Source != "sketch" {
			t.Fatalf("%s answered by %q, want sketch", name, res.Source)
		}
		re := relErr(res.Aggregates[0].Value, distinct)
		if re > 0.02 {
			t.Errorf("%s HLL: rel err %.4f exceeds bound 0.02 (got %v, want %d)",
				name, re, res.Aggregates[0].Value, distinct)
		}
		t.Logf("%s HLL COUNT(DISTINCT): rel err %.4f (bound 0.02)", name, re)
	}

	// TOP-K workload: 50 string values with harmonic skew — value v
	// appears 6000/(v+1) times, so the exact top-10 is v0..v9 by a wide
	// margin. Rows are laid down value-major; the absorbed lifecycle gets
	// every second occurrence via Append.
	var all, head []string
	var tail [][]interface{}
	for v := 0; v < 50; v++ {
		s := fmt.Sprintf("v%02d", v)
		n := 6000 / (v + 1)
		for i := 0; i < n; i++ {
			all = append(all, s)
			if i%2 == 0 {
				head = append(head, s)
			} else {
				tail = append(tail, []interface{}{s})
			}
		}
	}
	fullS := dbest.NewTable("skew")
	fullS.AddStringColumn("s", all)
	halfS := dbest.NewTable("skew")
	halfS.AddStringColumn("s", head)
	wantTop, err := exact.TopValues(fullS, "s", 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range sketchLifecycles(t, fullS, halfS, tail,
		"CREATE SKETCH st ON skew(s) TYPE TOPK K 10") {
		res, err := eng.Query("SELECT TOP 10(s) FROM skew")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Source != "sketch" {
			t.Fatalf("%s answered by %q, want sketch", name, res.Source)
		}
		exactSet := make(map[string]bool, len(wantTop))
		for _, e := range wantTop {
			exactSet[e.Value] = true
		}
		hits := 0
		for _, e := range res.Aggregates[0].TopK {
			if exactSet[e.Value] {
				hits++
			}
		}
		recall := float64(hits) / float64(len(wantTop))
		if recall < 0.9 {
			t.Errorf("%s TOP-10 recall %.2f below bound 0.9 (got %v, want %v)",
				name, recall, res.Aggregates[0].TopK, wantTop)
		}
		t.Logf("%s TOP-10 recall: %.2f (bound 0.9)", name, recall)
	}
}

// TestCICoverageRegression holds the per-answer error bounds to their
// contract: every model-path answer carries a predicted relative error and
// a confidence interval, and the exact answer lands inside that interval
// for at least 90% of spans. Coverage is checked per configuration —
// unsharded, sharded K=4 and K=16, GROUP BY, and a model retrained by the
// background refresher after ingest — so a regression in the bootstrap
// fit, the shard CI merge, or the bounds' survival across retrains fails
// here before it ships.
func TestCICoverageRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("CI-coverage harness trains 5 model configurations; skipped in -short")
	}
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 60000, Seed: 42})
	spec := dbest.ModelSpec{Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 4000, Seed: 42}
	aggs := []struct {
		af  exact.AggFunc
		sql string
	}{
		{exact.Count, "COUNT(*)"},
		{exact.Sum, "SUM(ss_sales_price)"},
		{exact.Avg, "AVG(ss_sales_price)"},
	}

	// checkCoverage runs every aggregate over every accuracy window against
	// the given engine, asserting the bounds contract on each answer and
	// the >= 90% coverage floor across the whole span set.
	checkCoverage := func(t *testing.T, eng *dbest.Engine, truth *dbest.Table) {
		t.Helper()
		covered, total := 0, 0
		for _, agg := range aggs {
			for _, r := range accuracyRanges {
				sql := fmt.Sprintf("SELECT %s FROM store_sales WHERE ss_sold_date_sk BETWEEN %g AND %g",
					agg.sql, r[0], r[1])
				res, err := eng.Query(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if res.Source != "model" {
					t.Fatalf("%s answered by %q, want model", sql, res.Source)
				}
				a := res.Aggregates[0]
				if a.PredRelErr <= 0 {
					t.Fatalf("%s: PredRelErr = %v, want > 0 on the model path", sql, a.PredRelErr)
				}
				if a.CI[0] > a.Value || a.Value > a.CI[1] {
					t.Fatalf("%s: value %v outside its own CI [%v, %v]", sql, a.Value, a.CI[0], a.CI[1])
				}
				want := exactAnswer(t, truth, agg.af, "ss_sales_price", "ss_sold_date_sk", r[0], r[1])
				total++
				if a.CI[0] <= want && want <= a.CI[1] {
					covered++
				} else {
					t.Logf("miss: %s over [%g,%g]: want %v outside CI [%v, %v] (±%.1f%%)",
						agg.sql, r[0], r[1], want, a.CI[0], a.CI[1], a.PredRelErr*100)
				}
			}
		}
		cov := float64(covered) / float64(total)
		t.Logf("CI coverage: %d/%d spans (%.0f%%)", covered, total, cov*100)
		if cov < 0.9 {
			t.Errorf("CI coverage %.2f below 0.90 floor (%d/%d spans)", cov, covered, total)
		}
	}

	t.Run("unsharded", func(t *testing.T) {
		eng := dbest.New(nil)
		if err := eng.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.CreateModel(context.Background(), &spec); err != nil {
			t.Fatal(err)
		}
		checkCoverage(t, eng, tb)
	})
	for _, k := range []int{4, 16} {
		k := k
		t.Run(fmt.Sprintf("sharded-k%d", k), func(t *testing.T) {
			eng := dbest.New(nil)
			if err := eng.RegisterTable(tb); err != nil {
				t.Fatal(err)
			}
			sspec := spec
			sspec.Shards = k
			if _, err := eng.CreateModel(context.Background(), &sspec); err != nil {
				t.Fatal(err)
			}
			checkCoverage(t, eng, tb)
		})
	}

	t.Run("groupby", func(t *testing.T) {
		gtb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 60000, Stores: 8, Seed: 42})
		eng := dbest.New(nil)
		if err := eng.RegisterTable(gtb); err != nil {
			t.Fatal(err)
		}
		gspec := spec
		gspec.GroupBy = "ss_store_sk"
		if _, err := eng.CreateModel(context.Background(), &gspec); err != nil {
			t.Fatal(err)
		}
		covered, total := 0, 0
		for _, r := range accuracyRanges {
			sql := fmt.Sprintf("SELECT ss_store_sk, SUM(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN %g AND %g GROUP BY ss_store_sk",
				r[0], r[1])
			res, err := eng.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if res.Source != "model" {
				t.Fatalf("%s answered by %q, want model", sql, res.Source)
			}
			want, err := exact.Query(gtb, exact.Request{AF: exact.Sum, Y: "ss_sales_price",
				Group:      "ss_store_sk",
				Predicates: []exact.Range{{Column: "ss_sold_date_sk", Lb: r[0], Ub: r[1]}}})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range res.Aggregates[0].Groups {
				if g.PredRelErr <= 0 {
					t.Fatalf("group %d over [%g,%g]: PredRelErr = %v, want > 0", g.Group, r[0], r[1], g.PredRelErr)
				}
				total++
				if tv := want.Groups[g.Group]; g.CI[0] <= tv && tv <= g.CI[1] {
					covered++
				} else {
					t.Logf("miss: group %d over [%g,%g]: want %v outside CI [%v, %v]",
						g.Group, r[0], r[1], tv, g.CI[0], g.CI[1])
				}
			}
		}
		cov := float64(covered) / float64(total)
		t.Logf("GROUP BY CI coverage: %d/%d group spans (%.0f%%)", covered, total, cov*100)
		if cov < 0.9 {
			t.Errorf("GROUP BY CI coverage %.2f below 0.90 floor (%d/%d)", cov, covered, total)
		}
	})

	t.Run("post-refresh", func(t *testing.T) {
		half := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 30000, Seed: 42})
		rest := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 30000, Seed: 43})
		eng := dbest.New(nil)
		if err := eng.RegisterTable(half); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.CreateModel(context.Background(), &spec); err != nil {
			t.Fatal(err)
		}
		if err := eng.StartRefresher(&dbest.RefreshOptions{
			Interval:  5 * time.Millisecond,
			Threshold: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
		defer eng.StopRefresher()
		if _, err := eng.AppendTable("store_sales", rest); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for eng.RefreshStats().Refreshes == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("background refresher never retrained; staleness: %+v", eng.ModelStaleness())
			}
			time.Sleep(2 * time.Millisecond)
		}
		// The retrained model's bounds must hold against the doubled table.
		checkCoverage(t, eng, eng.Table("store_sales"))
	})
}

func TestAccuracyRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy harness trains 4 model configurations; skipped in -short")
	}
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 60000, Seed: 42})

	type config struct {
		name   string
		shards int // 0 = plain (unsharded) model
	}
	configs := []config{
		{"unsharded", 0},
		{"sharded-k1", 1},
		{"sharded-k4", 4},
		{"sharded-k16", 16},
	}
	aggs := []struct {
		af  exact.AggFunc
		sql string
	}{
		{exact.Count, "COUNT(*)"},
		{exact.Sum, "SUM(ss_sales_price)"},
		{exact.Avg, "AVG(ss_sales_price)"},
	}

	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			eng := dbest.New(nil)
			if err := eng.RegisterTable(tb); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
				Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
				Shards: cfg.shards, SampleSize: 4000, Seed: 42,
			}); err != nil {
				t.Fatal(err)
			}
			for _, agg := range aggs {
				worst := 0.0
				for _, r := range accuracyRanges {
					sql := fmt.Sprintf("SELECT %s FROM store_sales WHERE ss_sold_date_sk BETWEEN %g AND %g",
						agg.sql, r[0], r[1])
					res, err := eng.Query(sql)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					if res.Source != "model" {
						t.Fatalf("%s answered by %q, want model", sql, res.Source)
					}
					want := exactAnswer(t, tb, agg.af, "ss_sales_price", "ss_sold_date_sk", r[0], r[1])
					re := relErr(res.Aggregates[0].Value, want)
					if re > worst {
						worst = re
					}
					if re > accuracyBounds[agg.af] {
						t.Errorf("%s over [%g,%g]: rel err %.4f exceeds bound %.2f (got %v, want %v)",
							agg.sql, r[0], r[1], re, accuracyBounds[agg.af],
							res.Aggregates[0].Value, want)
					}
				}
				t.Logf("%s %s: worst rel err %.4f (bound %.2f)", cfg.name, agg.sql, worst, accuracyBounds[agg.af])
			}
		})
	}
}
