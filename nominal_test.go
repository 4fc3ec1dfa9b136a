package dbest_test

import (
	"context"
	"testing"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/exact"
	"dbest/internal/sqlparse"
)

func TestParseNominalEquality(t *testing.T) {
	q, err := sqlparse.Parse(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_channel = 'web' AND ss_list_price BETWEEN 20 AND 80`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Equals) != 1 || q.Equals[0] != (sqlparse.Equality{Column: "ss_channel", Value: "web"}) {
		t.Fatalf("equals = %+v", q.Equals)
	}
	if len(q.Where) != 1 {
		t.Fatalf("where = %+v", q.Where)
	}
	// Escaped quote.
	q2, err := sqlparse.Parse(`SELECT COUNT(x) FROM t WHERE c = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Equals[0].Value != "it's" {
		t.Fatalf("value = %q", q2.Equals[0].Value)
	}
	// Unterminated string.
	if _, err := sqlparse.Parse(`SELECT COUNT(x) FROM t WHERE c = 'oops`); err == nil {
		t.Fatal("want error for unterminated literal")
	}
	// Equality to non-string.
	if _, err := sqlparse.Parse(`SELECT COUNT(x) FROM t WHERE c = 5`); err == nil {
		t.Fatal("want error for numeric equality (only nominal strings supported)")
	}
}

func nominalEngine(t *testing.T) (*dbest.Engine, *dbest.Table) {
	t.Helper()
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 60000, Seed: 31})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_sales_price",
		NominalBy: "ss_channel", SampleSize: 6000, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumModels != 3 {
		t.Fatalf("models = %d, want 3 (store, web, catalog)", info.NumModels)
	}
	return eng, tb
}

func TestNominalQueryMatchesExact(t *testing.T) {
	eng, tb := nominalEngine(t)
	for _, ch := range []string{"store", "web", "catalog"} {
		sql := `SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_channel = '` + ch +
			`' AND ss_list_price BETWEEN 30 AND 90`
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", ch, err)
		}
		if res.Source != "model" {
			t.Fatalf("%s: source = %q", ch, res.Source)
		}
		want, err := exact.Query(tb, exact.Request{AF: exact.Avg, Y: "ss_sales_price",
			Predicates: []exact.Range{{Column: "ss_list_price", Lb: 30, Ub: 90}},
			Equals:     []exact.Equal{{Column: "ss_channel", Value: ch}}})
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(res.Aggregates[0].Value, want.Value); re > 0.05 {
			t.Errorf("%s: AVG rel err %v (got %v want %v)", ch, re, res.Aggregates[0].Value, want.Value)
		}
	}
}

func TestNominalChannelsDiffer(t *testing.T) {
	// Web discounts more than in-store, so for the same price range the
	// per-channel models must produce different averages in the right order.
	eng, _ := nominalEngine(t)
	get := func(ch string) float64 {
		res, err := eng.Query(`SELECT AVG(ss_sales_price) FROM store_sales
			WHERE ss_channel = '` + ch + `' AND ss_list_price BETWEEN 40 AND 80`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Aggregates[0].Value
	}
	if !(get("web") < get("store")) {
		t.Fatal("web channel should have lower average sales price than store")
	}
}

func TestNominalCountScaling(t *testing.T) {
	eng, tb := nominalEngine(t)
	res, err := eng.Query(`SELECT COUNT(ss_sales_price) FROM store_sales
		WHERE ss_channel = 'web' AND ss_list_price BETWEEN 0 AND 1000`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Query(tb, exact.Request{AF: exact.Count, Y: "ss_sales_price",
		Predicates: []exact.Range{{Column: "ss_list_price", Lb: 0, Ub: 1000}},
		Equals:     []exact.Equal{{Column: "ss_channel", Value: "web"}}})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Aggregates[0].Value, want.Value); re > 0.05 {
		t.Fatalf("nominal COUNT rel err %v", re)
	}
}

func TestNominalUnknownValueFalls(t *testing.T) {
	eng, _ := nominalEngine(t)
	// Unknown nominal value: no model — surfaces an error from the model
	// path (no silent wrong answers).
	if _, err := eng.Query(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_channel = 'phone' AND ss_list_price BETWEEN 0 AND 100`); err == nil {
		t.Fatal("want error for unknown nominal value")
	}
}

func TestNominalFallbackWithoutModels(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 32})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`SELECT COUNT(*) FROM store_sales WHERE ss_channel = 'web'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("source = %q, want exact fallback", res.Source)
	}
	want, err := exact.Query(tb, exact.Request{AF: exact.Count, Y: "ss_quantity",
		Equals: []exact.Equal{{Column: "ss_channel", Value: "web"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregates[0].Value != want.Value {
		t.Fatalf("fallback COUNT = %v, want %v", res.Aggregates[0].Value, want.Value)
	}
}

func TestTrainNominalErrors(t *testing.T) {
	eng := dbest.New(nil)
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "ghost", XCols: []string{"x"}, YCol: "y", NominalBy: "z",
	}); err == nil {
		t.Fatal("want error for unregistered table")
	}
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 1000, Seed: 33})
	_ = eng.RegisterTable(tb)
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"nope"}, YCol: "ss_sales_price",
		NominalBy: "ss_channel",
	}); err == nil {
		t.Fatal("want error for missing x column")
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_sales_price",
		NominalBy: "ss_store_sk",
	}); err == nil {
		t.Fatal("want error for non-string nominal column")
	}
}
