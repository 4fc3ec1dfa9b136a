package dbest_test

import (
	"context"
	"strings"
	"testing"

	"dbest"
	"dbest/internal/datagen"
)

func TestExplainModelPath(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	p, err := eng.Explain(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 100 AND 200`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Path != "model" || len(p.ModelKeys) != 1 {
		t.Fatalf("plan = %+v", p)
	}
	if !strings.Contains(p.ModelKeys[0], "store_sales|ss_sold_date_sk|ss_sales_price") {
		t.Fatalf("key = %q", p.ModelKeys[0])
	}
}

func TestExplainExactPath(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	p, err := eng.Explain(`SELECT AVG(ss_quantity) FROM store_sales
		WHERE ss_wholesale_cost BETWEEN 5 AND 10`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Path != "exact" || p.Reason == "" {
		t.Fatalf("plan = %+v", p)
	}
}

func TestExplainNominal(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 61})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_sales_price",
		NominalBy: "ss_channel", SampleSize: 2000, Seed: 61,
	}); err != nil {
		t.Fatal(err)
	}
	p, err := eng.Explain(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_channel = 'web' AND ss_list_price BETWEEN 10 AND 50`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Path != "nominal-model" || len(p.ModelKeys) != 1 {
		t.Fatalf("plan = %+v", p)
	}
	// Unsupported nominal shape: explained as exact with a reason.
	p2, err := eng.Explain(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_channel = 'web' AND ss_list_price BETWEEN 10 AND 50
		AND ss_wholesale_cost BETWEEN 1 AND 5`)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Path != "exact" {
		t.Fatalf("plan = %+v", p2)
	}
}

func TestExplainParseError(t *testing.T) {
	eng := dbest.New(nil)
	if _, err := eng.Explain("SELECT"); err == nil {
		t.Fatal("want parse error")
	}
}

// TestExplainOperatorTrees: EXPLAIN renders the physical operator tree for
// the model, exact and group-by paths.
func TestExplainOperatorTrees(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 30000, Stores: 8, Seed: 12})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 3000, Seed: 12,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 2000, Seed: 12, GroupBy: "ss_store_sk",
	}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 200",
			[]string{"Project [model]", "ModelEval AVG(ss_sales_price)"}},
		{"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 200 GROUP BY ss_store_sk",
			[]string{"Project [model]", "GroupMerge AVG(ss_sales_price)", "groupby=ss_store_sk"}},
		{"SELECT AVG(ss_quantity) FROM store_sales WHERE ss_wholesale_cost BETWEEN 5 AND 10",
			[]string{"Project [exact]", "ExactScan AVG(ss_quantity)", "TableScan store_sales"}},
	}
	for _, tc := range cases {
		p, err := eng.Explain(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(p.Tree, want) {
				t.Fatalf("explain %q: tree missing %q:\n%s", tc.sql, want, p.Tree)
			}
		}
	}
}

// Model-definition statements explain without executing: the validated
// spec is rendered, no training runs, and invalid specs fail fast.
func TestExplainModelStatements(t *testing.T) {
	eng := dbest.New(nil)
	p, err := eng.Explain("CREATE MODEL m ON sales(date; price) SHARDS 8 SAMPLE 1000")
	if err != nil {
		t.Fatal(err)
	}
	if p.Path != "create-model" || !strings.Contains(p.Tree, "CreateModel(m: sales(date; price) SHARDS 8 SAMPLE 1000)") {
		t.Fatalf("explain CREATE MODEL = %+v", p)
	}
	if len(eng.ModelKeys()) != 0 {
		t.Fatal("EXPLAIN must not train anything")
	}
	if _, err := eng.Explain("CREATE MODEL m ON sales(a, b; y) SHARDS 2"); err == nil {
		t.Fatal("explaining an invalid spec should fail validation")
	}

	p, err = eng.Explain("DROP MODEL m")
	if err != nil || p.Path != "drop-model" || !strings.Contains(p.Tree, "DropModel(m)") {
		t.Fatalf("explain DROP MODEL = %+v, %v", p, err)
	}
	p, err = eng.Explain("SHOW MODELS")
	if err != nil || p.Path != "show-models" {
		t.Fatalf("explain SHOW MODELS = %+v, %v", p, err)
	}
}
