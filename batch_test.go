package dbest_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"dbest"
	"dbest/internal/datagen"
)

// TestQueryBatchDeterminism: a batch must answer exactly what the same
// queries answer when run sequentially — mixed shapes, model and exact
// paths, repeated shapes, and a GROUP BY.
func TestQueryBatchDeterminism(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 40000, Stores: 8, Seed: 9})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 4000, Seed: 9,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 3000, Seed: 9, GroupBy: "ss_store_sk",
	}); err != nil {
		t.Fatal(err)
	}

	var sqls []string
	for i := 0; i < 16; i++ {
		lo := 100 + 25*i
		sqls = append(sqls,
			fmt.Sprintf("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN %d AND %d", lo, lo+200))
	}
	sqls = append(sqls,
		// Repeated shape: must hit the plan-dedup path.
		sqls[0],
		"SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 600",
		// GROUP BY over the grouped model set.
		"SELECT SUM(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 600 GROUP BY ss_store_sk",
		// Unmodeled column: exact path.
		"SELECT AVG(ss_quantity) FROM store_sales WHERE ss_wholesale_cost BETWEEN 5 AND 10",
	)

	want := make([]*dbest.Result, len(sqls))
	for i, sql := range sqls {
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("sequential %q: %v", sql, err)
		}
		want[i] = res
	}

	got := eng.QueryBatch(sqls)
	if len(got) != len(sqls) {
		t.Fatalf("batch returned %d results for %d queries", len(got), len(sqls))
	}
	for i, br := range got {
		if br.Err != nil {
			t.Fatalf("batch[%d] %q: %v", i, sqls[i], br.Err)
		}
		if br.SQL != sqls[i] {
			t.Fatalf("batch[%d].SQL = %q, want %q", i, br.SQL, sqls[i])
		}
		w, g := want[i], br.Result
		if g.Source != w.Source || len(g.Aggregates) != len(w.Aggregates) {
			t.Fatalf("batch[%d]: got %+v, want %+v", i, g, w)
		}
		for j := range g.Aggregates {
			ga, wa := g.Aggregates[j], w.Aggregates[j]
			if ga.Name != wa.Name || ga.Value != wa.Value || len(ga.Groups) != len(wa.Groups) {
				t.Fatalf("batch[%d] agg %d: got %+v, want %+v", i, j, ga, wa)
			}
			for k := range ga.Groups {
				if ga.Groups[k] != wa.Groups[k] {
					t.Fatalf("batch[%d] agg %d group %d: got %+v, want %+v",
						i, j, k, ga.Groups[k], wa.Groups[k])
				}
			}
		}
	}
}

// TestQueryBatchElapsedStamped: every batch item must report its own
// shape's execution time — nonzero, and untouched on the memoized
// canonical copy so a later batch re-stamps its own time instead of
// inheriting a stale one. (Before per-shape stamping existed, batch
// results always reported Elapsed == 0.)
func TestQueryBatchElapsedStamped(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	sqls := []string{
		"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 600",
		// Same shape repeated: shares one execution, still reports its time.
		"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 600",
		// Exact path: never memoized, still stamped.
		"SELECT AVG(ss_quantity) FROM store_sales WHERE ss_wholesale_cost BETWEEN 5 AND 10",
	}
	for round := 0; round < 2; round++ {
		got := eng.QueryBatch(sqls)
		for i, br := range got {
			if br.Err != nil {
				t.Fatalf("round %d batch[%d]: %v", round, i, br.Err)
			}
			if br.Result.Elapsed <= 0 {
				t.Errorf("round %d batch[%d] %q: Elapsed = %v, want > 0",
					round, i, sqls[i], br.Result.Elapsed)
			}
		}
		if got[0].Result.Elapsed != got[1].Result.Elapsed {
			t.Errorf("round %d: duplicate shapes report different Elapsed (%v vs %v), want the shared shape's time",
				round, got[0].Result.Elapsed, got[1].Result.Elapsed)
		}
	}
}

// TestQueryBatchErrorIsolation: bad queries fail alone; their neighbors
// still answer.
func TestQueryBatchErrorIsolation(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	sqls := []string{
		"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 600",
		"THIS IS NOT SQL",
		"SELECT AVG(ss_sales_price) FROM nosuch_table WHERE ss_sold_date_sk BETWEEN 100 AND 600",
		"SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 600",
	}
	got := eng.QueryBatch(sqls)
	if got[0].Err != nil || got[0].Result == nil {
		t.Fatalf("batch[0] = %+v, want success", got[0])
	}
	if got[1].Err == nil {
		t.Fatal("batch[1]: want parse error")
	}
	if got[2].Err == nil || !strings.Contains(got[2].Err.Error(), "nosuch_table") {
		t.Fatalf("batch[2] err = %v, want unregistered-table error", got[2].Err)
	}
	if got[3].Err != nil || got[3].Result == nil {
		t.Fatalf("batch[3] = %+v, want success", got[3])
	}
}

func TestQueryBatchEmpty(t *testing.T) {
	eng := dbest.New(nil)
	if got := eng.QueryBatch(nil); len(got) != 0 {
		t.Fatalf("QueryBatch(nil) = %v, want empty", got)
	}
}

// TestPreparedRunBatch: RunBatch over parameter spans must agree with the
// equivalent standalone queries, on both the model and the exact path.
func TestPreparedRunBatch(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	cases := []struct {
		shape string
		spans []dbest.Span
	}{
		{"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN %g AND %g",
			[]dbest.Span{{Lb: 100, Ub: 300}, {Lb: 200, Ub: 700}, {Lb: 50, Ub: 1000}}},
		// Unmodeled aggregate: exact path, same span machinery.
		{"SELECT AVG(ss_quantity) FROM store_sales WHERE ss_wholesale_cost BETWEEN %g AND %g",
			[]dbest.Span{{Lb: 2, Ub: 10}, {Lb: 5, Ub: 50}, {Lb: 1, Ub: 80}}},
	}
	for _, tc := range cases {
		shape, spans := tc.shape, tc.spans
		p, err := eng.Prepare(fmt.Sprintf(shape, 2.0, 5.0))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.RunBatch(spans)
		if err != nil {
			t.Fatal(err)
		}
		for i, span := range spans {
			if got[i].Err != nil {
				t.Fatalf("span %v: %v", span, got[i].Err)
			}
			want, err := eng.Query(fmt.Sprintf(shape, span.Lb, span.Ub))
			if err != nil {
				t.Fatal(err)
			}
			g, w := got[i].Result.Aggregates[0].Value, want.Aggregates[0].Value
			if math.Abs(g-w) > 1e-9 {
				t.Fatalf("shape %q span %v: RunBatch = %v, Query = %v", shape, span, g, w)
			}
		}
	}
}

func TestRunBatchNeedsOneRangePredicate(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	p, err := eng.Prepare("SELECT COUNT(ss_sales_price) FROM store_sales")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunBatch([]dbest.Span{{Lb: 0, Ub: 1}}); err == nil {
		t.Fatal("want error for predicate-free query")
	}
}
