package dbest_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/exact"
	"dbest/internal/table"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// newSalesEngine builds an engine over a small TPC-DS-like table with a
// trained model on [ss_sold_date_sk → ss_sales_price].
func newSalesEngine(t *testing.T, rows int) (*dbest.Engine, *dbest.Table) {
	t.Helper()
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: rows, Seed: 1})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 5000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return eng, tb
}

func exactAnswer(t *testing.T, tb *dbest.Table, af exact.AggFunc, y, x string, lb, ub float64) float64 {
	t.Helper()
	r, err := exact.Query(tb, exact.Request{AF: af, Y: y,
		Predicates: []exact.Range{{Column: x, Lb: lb, Ub: ub}}})
	if err != nil {
		t.Fatal(err)
	}
	return r.Value
}

func TestRegisterTableValidation(t *testing.T) {
	eng := dbest.New(nil)
	if err := eng.RegisterTable(dbest.NewTable("")); err == nil {
		t.Fatal("want error for unnamed table")
	}
	bad := dbest.NewTable("bad")
	bad.AddFloatColumn("a", []float64{1, 2})
	bad.AddFloatColumn("b", []float64{1})
	if err := eng.RegisterTable(bad); err == nil {
		t.Fatal("want error for ragged table")
	}
}

func TestTrainUnknownTable(t *testing.T) {
	eng := dbest.New(nil)
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "ghost", XCols: []string{"x"}, YCol: "y",
	}); err == nil {
		t.Fatal("want error for unregistered table")
	}
}

func TestQueryAnsweredByModel(t *testing.T) {
	eng, tb := newSalesEngine(t, 50000)
	res, err := eng.Query(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 200 AND 600`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q, want model", res.Source)
	}
	want := exactAnswer(t, tb, exact.Avg, "ss_sales_price", "ss_sold_date_sk", 200, 600)
	if re := relErr(res.Aggregates[0].Value, want); re > 0.05 {
		t.Fatalf("AVG: got %v, want %v (rel err %v)", res.Aggregates[0].Value, want, re)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
	if res.Aggregates[0].Name != "AVG(ss_sales_price)" {
		t.Fatalf("aggregate name = %q", res.Aggregates[0].Name)
	}
}

func TestQueryMultipleAggregates(t *testing.T) {
	eng, tb := newSalesEngine(t, 50000)
	res, err := eng.Query(`SELECT COUNT(ss_sales_price), SUM(ss_sales_price), AVG(ss_sales_price)
		FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 900`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggregates) != 3 {
		t.Fatalf("aggregates = %d", len(res.Aggregates))
	}
	for i, af := range []exact.AggFunc{exact.Count, exact.Sum, exact.Avg} {
		want := exactAnswer(t, tb, af, "ss_sales_price", "ss_sold_date_sk", 100, 900)
		if re := relErr(res.Aggregates[i].Value, want); re > 0.08 {
			t.Errorf("%v: got %v, want %v (rel err %v)", af, res.Aggregates[i].Value, want, re)
		}
	}
}

func TestQueryCountStar(t *testing.T) {
	eng, tb := newSalesEngine(t, 30000)
	res, err := eng.Query(`SELECT COUNT(*) FROM store_sales WHERE ss_sold_date_sk BETWEEN 300 AND 700`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	want := exactAnswer(t, tb, exact.Count, "ss_sales_price", "ss_sold_date_sk", 300, 700)
	if re := relErr(res.Aggregates[0].Value, want); re > 0.05 {
		t.Fatalf("COUNT(*): rel err %v", re)
	}
}

func TestQueryFallsBackToExact(t *testing.T) {
	eng, tb := newSalesEngine(t, 20000)
	// No model exists for ss_quantity → must fall back and be exact.
	res, err := eng.Query(`SELECT AVG(ss_quantity) FROM store_sales WHERE ss_wholesale_cost BETWEEN 10 AND 30`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("source = %q, want exact", res.Source)
	}
	want := exactAnswer(t, tb, exact.Avg, "ss_quantity", "ss_wholesale_cost", 10, 30)
	if res.Aggregates[0].Value != want {
		t.Fatalf("exact fallback: got %v, want %v", res.Aggregates[0].Value, want)
	}
}

func TestQueryUnknownTable(t *testing.T) {
	eng := dbest.New(nil)
	if _, err := eng.Query("SELECT AVG(y) FROM ghost WHERE x BETWEEN 0 AND 1"); err == nil {
		t.Fatal("want error for unknown table with no model")
	}
}

func TestQueryBadSQL(t *testing.T) {
	eng := dbest.New(nil)
	if _, err := eng.Query("SELECT FROM"); err == nil {
		t.Fatal("want parse error")
	}
}

func TestGroupByQuery(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 60000, Stores: 10, Seed: 2})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 3000, Seed: 3, GroupBy: "ss_store_sk",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumModels != 10 {
		t.Fatalf("models = %d, want 10", info.NumModels)
	}
	res, err := eng.Query(`SELECT ss_store_sk, SUM(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 100 AND 1500 GROUP BY ss_store_sk`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	groups := res.Aggregates[0].Groups
	if len(groups) != 10 {
		t.Fatalf("groups = %d, want 10", len(groups))
	}
	want, err := exact.Query(tb, exact.Request{AF: exact.Sum, Y: "ss_sales_price",
		Group:      "ss_store_sk",
		Predicates: []exact.Range{{Column: "ss_sold_date_sk", Lb: 100, Ub: 1500}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if re := relErr(g.Value, want.Groups[g.Group]); re > 0.2 {
			t.Errorf("group %d: rel err %v", g.Group, re)
		}
	}
}

func TestJoinQueryViaModels(t *testing.T) {
	sales := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 60000, Stores: 20, Seed: 4})
	stores := datagen.Store(20, 4)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(sales); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterTable(stores); err != nil {
		t.Fatal(err)
	}
	info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales",
		Join:  &dbest.JoinSpec{Table: "store", LeftKey: "ss_store_sk", RightKey: "s_store_sk"},
		XCols: []string{"s_number_of_employees"}, YCol: "ss_net_profit",
		SampleSize: 8000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Key, dbest.JoinName("store_sales", "store")) {
		t.Fatalf("key = %q", info.Key)
	}
	res, err := eng.Query(`SELECT AVG(ss_net_profit) FROM store_sales JOIN store
		ON ss_store_sk = s_store_sk
		WHERE s_number_of_employees BETWEEN 210 AND 280`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q, want model (join models trained)", res.Source)
	}
	joined, err := table.EquiJoin(sales, stores, "ss_store_sk", "s_store_sk")
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Query(joined, exact.Request{AF: exact.Avg, Y: "ss_net_profit",
		Predicates: []exact.Range{{Column: "s_number_of_employees", Lb: 210, Ub: 280}}})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Aggregates[0].Value, want.Value); re > 0.25 {
		t.Fatalf("join AVG: got %v, want %v (rel err %v)", res.Aggregates[0].Value, want.Value, re)
	}
}

func TestJoinQueryExactFallback(t *testing.T) {
	sales := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 5000, Stores: 5, Seed: 6})
	stores := datagen.Store(5, 6)
	eng := dbest.New(nil)
	_ = eng.RegisterTable(sales)
	_ = eng.RegisterTable(stores)
	res, err := eng.Query(`SELECT COUNT(ss_net_profit) FROM store_sales JOIN store
		ON ss_store_sk = s_store_sk WHERE s_number_of_employees BETWEEN 200 AND 300`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("source = %q, want exact", res.Source)
	}
	if res.Aggregates[0].Value != 5000 {
		t.Fatalf("join COUNT = %v, want 5000 (all employees in range)", res.Aggregates[0].Value)
	}
}

func TestMultivariateQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 30000
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := range x1 {
		x1[i] = rng.Float64() * 10
		x2[i] = rng.Float64() * 10
		y[i] = x1[i] + 2*x2[i] + rng.NormFloat64()*0.3
	}
	tb := dbest.NewTable("mv")
	tb.AddFloatColumn("x1", x1)
	tb.AddFloatColumn("x2", x2)
	tb.AddFloatColumn("y", y)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "mv", XCols: []string{"x1", "x2"}, YCol: "y", SampleSize: 4000, Seed: 8,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`SELECT AVG(y) FROM mv WHERE x1 BETWEEN 2 AND 8 AND x2 BETWEEN 3 AND 9`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	want, _ := exact.Query(tb, exact.Request{AF: exact.Avg, Y: "y", Predicates: []exact.Range{
		{Column: "x1", Lb: 2, Ub: 8}, {Column: "x2", Lb: 3, Ub: 9}}})
	if re := relErr(res.Aggregates[0].Value, want.Value); re > 0.1 {
		t.Fatalf("multivariate AVG rel err = %v", re)
	}
	// Reversed predicate order must also hit the model.
	res2, err := eng.Query(`SELECT AVG(y) FROM mv WHERE x2 BETWEEN 3 AND 9 AND x1 BETWEEN 2 AND 8`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != "model" {
		t.Fatalf("permuted predicates: source = %q", res2.Source)
	}
	if math.Abs(res2.Aggregates[0].Value-res.Aggregates[0].Value) > 1e-9 {
		t.Fatal("permuted predicates must give the same answer")
	}
}

func TestPercentileNoPredicate(t *testing.T) {
	eng, tb := newSalesEngine(t, 40000)
	res, err := eng.Query(`SELECT PERCENTILE(ss_sold_date_sk, 0.5) FROM store_sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	want, err := exact.Query(tb, exact.Request{AF: exact.Percentile, Y: "ss_sold_date_sk", P: 0.5,
		Predicates: []exact.Range{{Column: "ss_sold_date_sk", Lb: math.Inf(-1), Ub: math.Inf(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	// Date domain is ~1823 wide; accept 2% of domain.
	if math.Abs(res.Aggregates[0].Value-want.Value) > 40 {
		t.Fatalf("median: got %v, want %v", res.Aggregates[0].Value, want.Value)
	}
}

func TestDensityBasedVarianceQuery(t *testing.T) {
	eng, tb := newSalesEngine(t, 40000)
	// VARIANCE over the predicate column itself — density-based (Eq. 2).
	res, err := eng.Query(`SELECT VARIANCE(ss_sold_date_sk) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 100 AND 1700`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	want := exactAnswer(t, tb, exact.Variance, "ss_sold_date_sk", "ss_sold_date_sk", 100, 1700)
	if re := relErr(res.Aggregates[0].Value, want); re > 0.1 {
		t.Fatalf("VARIANCE_x rel err = %v", re)
	}
}

func TestDropTableModelsSurvive(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	eng.DropTable("store_sales")
	// Model-served queries still work with the base table gone — DBEst's
	// defining property.
	res, err := eng.Query(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 200 AND 900`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	// But fallback queries now fail.
	if _, err := eng.Query(`SELECT AVG(ss_quantity) FROM store_sales
		WHERE ss_quantity BETWEEN 0 AND 10`); err == nil {
		t.Fatal("fallback should fail once the base table is dropped")
	}
}

func TestSaveLoadModels(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	path := t.TempDir() + "/models.gob"
	if err := eng.SaveModels(path); err != nil {
		t.Fatal(err)
	}
	eng2 := dbest.New(nil)
	if err := eng2.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	if len(eng2.ModelKeys()) != 1 {
		t.Fatalf("keys = %v", eng2.ModelKeys())
	}
	res, err := eng2.Query(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 200 AND 900`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	if eng2.ModelBytes() <= 0 {
		t.Fatal("ModelBytes must be positive")
	}
}

func TestScaledLogicalTable(t *testing.T) {
	// A 20k-row physical table trained with Scale 1e5 behaves like a
	// 2-billion-row logical table for COUNT.
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 9})
	eng := dbest.New(nil)
	_ = eng.RegisterTable(tb)
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 5000, Seed: 9, Scale: 1e5,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`SELECT COUNT(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 0 AND 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Aggregates[0].Value, 2e9); re > 0.02 {
		t.Fatalf("scaled COUNT = %v, want ≈ 2e9", res.Aggregates[0].Value)
	}
}

// TestTrainInfoStages: every kind of model pair reports where its training
// time went. One pair's stages fit inside the wall clock around them; a
// sharded or grouped build sums its pairs' stages.
func TestTrainInfoStages(t *testing.T) {
	eng := dbest.New(nil)
	if err := eng.RegisterTable(datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 8000, Stores: 4, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]dbest.ModelSpec{
		"plain":   {XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price"},
		"grouped": {XCols: []string{"ss_list_price"}, YCol: "ss_net_profit", GroupBy: "ss_store_sk"},
		"nominal": {XCols: []string{"ss_list_price"}, YCol: "ss_sales_price", NominalBy: "ss_channel"},
		"sharded": {XCols: []string{"ss_wholesale_cost"}, YCol: "ss_quantity", Shards: 2},
	} {
		spec.Table, spec.SampleSize, spec.Seed, spec.Workers = "store_sales", 800, 1, 1
		info, err := eng.CreateModel(context.Background(), &spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := info.Stages
		if st.Density <= 0 || st.Regressor <= 0 || st.Grid <= 0 || st.Bounds <= 0 {
			t.Errorf("%s: stage times %+v, want every stage timed", name, st)
		}
		// Workers is 1, so nothing overlaps: the stages are part of TrainTime.
		if sum := st.Density + st.Regressor + st.Grid + st.Bounds; sum > info.TrainTime {
			t.Errorf("%s: stages sum to %v, above TrainTime %v", name, sum, info.TrainTime)
		}
	}
}
