package dbest_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dbest"
	"dbest/internal/datagen"
)

// Golden-file tests for the EXPLAIN operator-tree renderings: any change
// to plan shapes — a new operator, different details, reordered children —
// shows up as a reviewable diff against testdata/explain/*.golden.
// Regenerate with:
//
//	go test -run TestExplainGolden -update .
var updateGolden = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

func TestExplainGolden(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 30000, Stores: 8, Seed: 12})
	store := datagen.Store(8, 12)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterTable(store); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 3000, Seed: 12,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_net_profit",
		SampleSize: 2000, Seed: 12, GroupBy: "ss_store_sk",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_sales_price",
		NominalBy: "ss_channel", SampleSize: 2000, Seed: 12,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_wholesale_cost"}, YCol: "ss_quantity",
		Shards: 8, SampleSize: 1000, Seed: 12,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("CREATE SKETCH dates ON store_sales(ss_sold_date_sk) TYPE HLL"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("CREATE SKETCH channels ON store_sales(ss_channel) TYPE TOPK K 5"); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		sql  string
	}{
		{"model_uni", `SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 200`},
		{"model_multi_agg", `SELECT COUNT(*), SUM(ss_sales_price), AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 200`},
		{"group_merge", `SELECT AVG(ss_net_profit) FROM store_sales WHERE ss_list_price BETWEEN 20 AND 80 GROUP BY ss_store_sk`},
		{"nominal", `SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_channel = 'web' AND ss_list_price BETWEEN 10 AND 50`},
		{"exact_scan", `SELECT AVG(ss_ext_discount_amt) FROM store_sales WHERE ss_quantity BETWEEN 5 AND 10`},
		{"exact_join", `SELECT AVG(ss_sales_price) FROM store_sales JOIN store ON ss_store_sk = s_store_sk WHERE s_number_of_employees BETWEEN 200 AND 250`},
		{"shard_merge_narrow", `SELECT AVG(ss_quantity) FROM store_sales WHERE ss_wholesale_cost BETWEEN 30 AND 34`},
		{"shard_merge_wide", `SELECT COUNT(*) FROM store_sales WHERE ss_wholesale_cost BETWEEN 5 AND 95`},
		{"shard_merge_percentile", `SELECT PERCENTILE(ss_wholesale_cost, 0.9) FROM store_sales`},
		{"sketch_distinct", `SELECT COUNT(DISTINCT ss_sold_date_sk) FROM store_sales`},
		{"sketch_topk", `SELECT TOP 3(ss_channel) FROM store_sales`},
		{"sketch_exact_fallback", `SELECT COUNT(DISTINCT ss_sold_date_sk) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 200`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan, err := eng.Explain(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("query: %s\npath: %s\n", tc.sql, plan.Path)
			if plan.Reason != "" {
				got += "reason: " + plan.Reason + "\n"
			}
			for _, k := range plan.ModelKeys {
				got += "model: " + k + "\n"
			}
			got += plan.Tree
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN rendering changed.\n--- got ---\n%s\n--- want (%s) ---\n%s\nRe-run with -update if intentional.",
					got, path, want)
			}
		})
	}
}
