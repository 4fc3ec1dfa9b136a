package dbest_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/exact"
	"dbest/internal/table"
)

func TestTrainJoinSampled(t *testing.T) {
	sales := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 80000, Stores: 40, Seed: 21})
	stores := datagen.Store(40, 21)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(sales); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterTable(stores); err != nil {
		t.Fatal(err)
	}
	// Keep half the join-key universe on both sides.
	info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales",
		Join: &dbest.JoinSpec{Table: "store", LeftKey: "ss_store_sk", RightKey: "s_store_sk",
			Sampled: true, SampleNum: 1, SampleDenom: 2},
		XCols: []string{"s_number_of_employees"}, YCol: "ss_net_profit",
		SampleSize: 8000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumModels != 1 {
		t.Fatalf("models = %d", info.NumModels)
	}
	res, err := eng.Query(`SELECT COUNT(ss_net_profit), AVG(ss_net_profit)
		FROM store_sales JOIN store ON ss_store_sk = s_store_sk
		WHERE s_number_of_employees BETWEEN 200 AND 300`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	joined, err := table.EquiJoin(sales, stores, "ss_store_sk", "s_store_sk")
	if err != nil {
		t.Fatal(err)
	}
	wantCnt, err := exact.Query(joined, exact.Request{AF: exact.Count, Y: "ss_net_profit",
		Predicates: []exact.Range{{Column: "s_number_of_employees", Lb: 200, Ub: 300}}})
	if err != nil {
		t.Fatal(err)
	}
	// Hashed sampling keeps ~half the key universe, but store volumes are
	// skewed, so the kept half may carry an uneven share of fact rows; the
	// scale correction recovers the magnitude with that variance.
	if re := relErr(res.Aggregates[0].Value, wantCnt.Value); re > 0.5 {
		t.Fatalf("sampled-join COUNT: got %v, want %v (rel err %v)",
			res.Aggregates[0].Value, wantCnt.Value, re)
	}
	wantAvg, err := exact.Query(joined, exact.Request{AF: exact.Avg, Y: "ss_net_profit",
		Predicates: []exact.Range{{Column: "s_number_of_employees", Lb: 200, Ub: 300}}})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Aggregates[1].Value, wantAvg.Value); re > 0.35 {
		t.Fatalf("sampled-join AVG: got %v, want %v (rel err %v)",
			res.Aggregates[1].Value, wantAvg.Value, re)
	}
}

func TestTrainJoinSampledErrors(t *testing.T) {
	eng := dbest.New(nil)
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "a",
		Join: &dbest.JoinSpec{Table: "b", LeftKey: "k", RightKey: "k",
			Sampled: true, SampleNum: 1, SampleDenom: 2},
		XCols: []string{"x"}, YCol: "y",
	}); err == nil {
		t.Fatal("want error for unregistered tables")
	}
}

func TestRegressorChoices(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 30000, Seed: 22})
	want, err := exact.Query(tb, exact.Request{AF: exact.Avg, Y: "ss_wholesale_cost",
		Predicates: []exact.Range{{Column: "ss_list_price", Lb: 40, Ub: 80}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range []string{"ensemble", "gboost", "xgboost", "plr"} {
		eng := dbest.New(nil)
		if err := eng.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
			Table: "store_sales", XCols: []string{"ss_list_price"},
			YCol: "ss_wholesale_cost", SampleSize: 5000, Seed: 22, Regressor: reg,
		}); err != nil {
			t.Fatalf("%s: %v", reg, err)
		}
		res, err := eng.Query(`SELECT AVG(ss_wholesale_cost) FROM store_sales
			WHERE ss_list_price BETWEEN 40 AND 80`)
		if err != nil {
			t.Fatalf("%s: %v", reg, err)
		}
		if re := relErr(res.Aggregates[0].Value, want.Value); re > 0.1 {
			t.Errorf("%s: AVG rel err %v", reg, re)
		}
	}
	// Unknown family must fail cleanly.
	eng := dbest.New(nil)
	_ = eng.RegisterTable(tb)
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_wholesale_cost",
		Regressor: "forest",
	}); err == nil {
		t.Fatal("want error for unknown regressor")
	}
}

func TestConcurrentQueries(t *testing.T) {
	eng, _ := newSalesEngine(t, 30000)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	vals := make([]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := eng.Query(`SELECT AVG(ss_sales_price) FROM store_sales
					WHERE ss_sold_date_sk BETWEEN 200 AND 900`)
				if err != nil {
					errs[g] = err
					return
				}
				vals[g] = res.Aggregates[0].Value
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if math.Abs(vals[g]-vals[0]) > 1e-12 {
			t.Fatal("concurrent queries must be deterministic on immutable models")
		}
	}
}

func TestVarianceYQueryThroughEngine(t *testing.T) {
	eng, tb := newSalesEngine(t, 40000)
	res, err := eng.Query(`SELECT VARIANCE(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 100 AND 1700`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q", res.Source)
	}
	want, err := exact.Query(tb, exact.Request{AF: exact.Variance, Y: "ss_sales_price",
		Predicates: []exact.Range{{Column: "ss_sold_date_sk", Lb: 100, Ub: 1700}}})
	if err != nil {
		t.Fatal(err)
	}
	// Regression-based VARIANCE misses residual spread; check magnitude only.
	if res.Aggregates[0].Value < 0 || res.Aggregates[0].Value > 4*want.Value {
		t.Fatalf("VARIANCE_y = %v vs exact %v", res.Aggregates[0].Value, want.Value)
	}
}

func TestEmptyRegionQueryErrors(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	if _, err := eng.Query(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 90000 AND 99000`); err == nil {
		t.Fatal("AVG over an empty region should surface an error")
	}
}
