package dbest_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dbest"
	"dbest/internal/datagen"
)

func TestPrepareAndRun(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	p, err := eng.Prepare(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 200 AND 600`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Path() != dbest.PathModel {
		t.Fatalf("path = %q, want %q", p.Path(), dbest.PathModel)
	}
	if keys := p.ModelKeys(); len(keys) != 1 || !strings.Contains(keys[0], "store_sales") {
		t.Fatalf("model keys = %v", keys)
	}
	res1, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Aggregates[0].Value != res2.Aggregates[0].Value {
		t.Fatalf("repeated Run disagrees: %v vs %v", res1.Aggregates[0].Value, res2.Aggregates[0].Value)
	}
	if res1.Source != "model" {
		t.Fatalf("source = %q, want model", res1.Source)
	}
}

func TestPlanCacheHitMiss(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	if st := eng.PlanCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("fresh engine stats = %+v", st)
	}
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	first, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after first query: %+v, want 1 miss, 1 entry", st)
	}
	// The same statement with different whitespace, keyword case and number
	// formatting must hit: the cache keys on the canonical shape.
	if _, err := eng.Query("select  avg(ss_sales_price)  from store_sales " +
		"where ss_sold_date_sk between 200.0 and 600 ;"); err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after equivalent query: %+v, want 1 hit, 1 entry", st)
	}
	// Different bounds are the same shape — literals are bound at run time,
	// not part of the key: hit, still one entry, and its own answer.
	other, err := eng.Query("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 300")
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after new literals: %+v, want 2 hits, 1 entry", st)
	}
	if other.Aggregates[0].Value == first.Aggregates[0].Value {
		t.Fatalf("BETWEEN 100 AND 300 answered %v, the cached statement's answer", other.Aggregates[0].Value)
	}
	// A different aggregate is a different shape: miss, second entry.
	if _, err := eng.Query("SELECT SUM(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"); err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after new shape: %+v, want 2 misses, 2 entries", st)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 5000, Seed: 1})
	eng := dbest.New(&dbest.Options{PlanCacheSize: -1})
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_sales_price BETWEEN 0 AND 1000"
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.PlanCacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache stats = %+v, want no hits and no entries", st)
	}
}

func TestPlanCacheInvalidatedByTrain(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	// ss_quantity has no model yet: the plan falls to the exact path and is
	// cached as such.
	sql := "SELECT AVG(ss_quantity) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("pre-train source = %q, want exact", res.Source)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_quantity",
		SampleSize: 5000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Training bumped the catalog generation: the cached exact plan must be
	// invalidated and the query re-planned onto the new model.
	res, err = eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("post-train source = %q, want model", res.Source)
	}
	st := eng.PlanCacheStats()
	if st.Misses < 2 {
		t.Fatalf("stats = %+v: invalidation should force a second planning miss", st)
	}
	// The generation bump drops every stale entry, not just the looked-up
	// key — cached plans must not pin replaced model sets in memory.
	if st.Entries != 1 {
		t.Fatalf("stats = %+v: stale plans should be wiped on invalidation, leaving 1 entry", st)
	}
}

func TestPlanCacheInvalidatedByLoadModels(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	path := filepath.Join(t.TempDir(), "models.gob")
	if err := eng.SaveModels(path); err != nil {
		t.Fatal(err)
	}

	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 1})
	fresh := dbest.New(nil)
	if err := fresh.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	res, err := fresh.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("pre-load source = %q, want exact", res.Source)
	}
	if err := fresh.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	res, err = fresh.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("post-load source = %q, want model", res.Source)
	}
}

// TestConcurrentQueryTrain races many readers of the plan cache and catalog
// against a writer retraining model sets. Run with -race this is the
// engine-level counterpart of the dbest-serve load test.
func TestConcurrentQueryTrain(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := (c*25 + i) % 400
				sql := fmt.Sprintf("SELECT AVG(ss_sales_price) FROM store_sales"+
					" WHERE ss_sold_date_sk BETWEEN %d AND %d", lo, lo+300)
				if i%2 == 0 { // fixed shape: exercises the cache-hit path
					sql = "SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 0 AND 700"
				}
				if _, err := eng.Query(sql); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
				Table: "store_sales", XCols: []string{"ss_sold_date_sk"},
				YCol: "ss_quantity", SampleSize: 1000, Seed: int64(i),
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTrainJoinSampledRejectsBadRatio(t *testing.T) {
	eng := dbest.New(nil)
	cases := []struct{ num, denom uint64 }{{0, 4}, {1, 0}, {0, 0}, {5, 4}}
	for _, c := range cases {
		_, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
			Table: "a",
			Join: &dbest.JoinSpec{Table: "b", LeftKey: "k", RightKey: "k",
				Sampled: true, SampleNum: c.num, SampleDenom: c.denom},
			XCols: []string{"x"}, YCol: "y",
		})
		if err == nil {
			t.Fatalf("ratio %d/%d: want error, got nil", c.num, c.denom)
		}
		if !strings.Contains(err.Error(), "ratio") {
			t.Fatalf("ratio %d/%d: error %q should reject the keep ratio", c.num, c.denom, err)
		}
	}
	// A valid ratio proceeds to the next check (unregistered tables).
	_, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "a",
		Join: &dbest.JoinSpec{Table: "b", LeftKey: "k", RightKey: "k",
			Sampled: true, SampleNum: 1, SampleDenom: 4},
		XCols: []string{"x"}, YCol: "y",
	})
	if err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("valid ratio: err = %v, want unregistered-table error", err)
	}
}

func TestCountStarAllStringColumns(t *testing.T) {
	eng := dbest.New(nil)
	tb := dbest.NewTable("labels")
	tb.AddStringColumn("a", []string{"x", "y", "z"})
	tb.AddStringColumn("b", []string{"p", "q", "r"})
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Query("SELECT COUNT(*) FROM labels")
	if err == nil {
		t.Fatal("COUNT(*) over all-string table: want error, got nil")
	}
	if !strings.Contains(err.Error(), "numeric column") {
		t.Fatalf("error %q should explain the missing numeric column", err)
	}
}

// TestStdlibOnly is the regression test for the headline bugfix: the module
// must declare no external dependencies, so `go build ./...` works from a
// fresh clone with nothing but the Go toolchain.
func TestStdlibOnly(t *testing.T) {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatalf("go.mod must exist at the module root: %v", err)
	}
	mod := string(data)
	if !strings.Contains(mod, "module dbest") {
		t.Fatalf("go.mod must declare module dbest:\n%s", mod)
	}
	if strings.Contains(mod, "require") {
		t.Fatalf("go.mod must not require external modules:\n%s", mod)
	}
}

// BenchmarkPrepare shows what the plan cache saves on a repeated query
// shape: a cache hit skips the parser and the catalog scan entirely.
// BenchmarkQueryFreshLiterals is the dashboard case — the same shape under
// literals never seen before — which the shape key serves from the same
// cached plan (TestQueryAllocCeiling holds its allocs/op in tier-1).
func BenchmarkPrepareCached(b *testing.B) {
	eng := benchSalesEngine(b)
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	if _, err := eng.Prepare(sql); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Prepare(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrepareUncached(b *testing.B) {
	eng := benchSalesEngine(b, dbest.Options{PlanCacheSize: -1})
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Prepare(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryFreshLiterals(b *testing.B) {
	eng := benchSalesEngine(b)
	sqls := make([]string, 4096)
	for i := range sqls {
		lo := 200 + 0.013*float64(i)
		sqls[i] = fmt.Sprintf("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN %g AND %g", lo, lo+400.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryCached(b *testing.B) {
	eng := benchSalesEngine(b)
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryUncached(b *testing.B) {
	eng := benchSalesEngine(b, dbest.Options{PlanCacheSize: -1})
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSalesEngine(b *testing.B, opts ...dbest.Options) *dbest.Engine {
	b.Helper()
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 1})
	var o *dbest.Options
	if len(opts) > 0 {
		o = &opts[0]
	}
	eng := dbest.New(o)
	if err := eng.RegisterTable(tb); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 5000, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	return eng
}

// TestPlanCacheEvictionCounters: capacity resets and generation wipes are
// counted, and hit/miss counters survive both kinds of wholesale drop.
func TestPlanCacheEvictionCounters(t *testing.T) {
	eng := dbest.New(&dbest.Options{PlanCacheSize: 2})
	s1 := "SELECT COUNT(a) FROM t WHERE a BETWEEN 1 AND 2"
	s2 := "SELECT SUM(a) FROM t WHERE a BETWEEN 3 AND 4"
	s3 := "SELECT AVG(a) FROM t WHERE a BETWEEN 5 AND 6"
	for _, sql := range []string{s1, s1, s2} {
		if _, err := eng.Prepare(sql); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Third distinct shape overflows max=2: wholesale capacity reset.
	if _, err := eng.Prepare(s3); err != nil {
		t.Fatal(err)
	}
	st = eng.PlanCacheStats()
	if st.Resets != 1 || st.Evictions != 2 || st.Entries != 1 {
		t.Fatalf("after capacity reset: %+v", st)
	}
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("hit/miss counters must survive a reset: %+v", st)
	}

	// A catalog mutation bumps the generation: the next lookup wipes the
	// map, counts the wipe and the evictions, and keeps hits/misses.
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(2 * i)
	}
	tb := dbest.NewTable("t")
	tb.AddFloatColumn("a", xs)
	tb.AddFloatColumn("b", ys)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "t", XCols: []string{"a"}, YCol: "b", SampleSize: 100, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Prepare(s3); err != nil {
		t.Fatal(err)
	}
	st = eng.PlanCacheStats()
	if st.GenerationWipes != 1 || st.Evictions != 3 {
		t.Fatalf("after generation wipe: %+v", st)
	}
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("hit/miss counters must survive a wipe: %+v", st)
	}
}
