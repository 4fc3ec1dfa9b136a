package dbest_test

import (
	"context"
	"fmt"
	"testing"

	"dbest"
	"dbest/internal/datagen"
)

// BenchmarkQuerySharded vs BenchmarkQueryUnsharded: the acceptance-criteria
// pair. Both engines get the same total sample budget (16k rows of state)
// over the same 60k-row table — one 16k-sample model vs sixteen 1k-sample
// shard models — and answer the same narrow-range workload (windows ≤ 1/16
// of the ss_sold_date_sk domain). The sharded ensemble prunes to 1–2
// shards per query and each shard's regressor is auto-sized smaller, so
// the integrand is cheaper exactly where narrow queries spend their time.

const benchShardTotalSample = 16000

func benchSalesTable() *dbest.Table {
	return datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 60000, Seed: 7})
}

// benchNarrowSQLs is the shared workload: 8 distinct ~40-day windows
// (domain 0..1823, so each is ~1/45 of it — well under 1/16).
func benchNarrowSQLs() []string {
	sqls := make([]string, 8)
	for i := range sqls {
		lo := 100 + 200*i
		sqls[i] = fmt.Sprintf(
			"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN %d AND %d",
			lo, lo+40)
	}
	return sqls
}

func runNarrowWorkload(b *testing.B, eng *dbest.Engine) {
	b.Helper()
	sqls := benchNarrowSQLs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(sqls[i%len(sqls)])
		if err != nil {
			b.Fatal(err)
		}
		if res.Source != "model" {
			b.Fatalf("source = %q, want model", res.Source)
		}
	}
}

func BenchmarkQueryUnsharded(b *testing.B) {
	eng := dbest.New(nil)
	if err := eng.RegisterTable(benchSalesTable()); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: benchShardTotalSample, Seed: 7,
	}); err != nil {
		b.Fatal(err)
	}
	runNarrowWorkload(b, eng)
}

func BenchmarkQuerySharded(b *testing.B) {
	const k = 16
	eng := dbest.New(nil)
	if err := eng.RegisterTable(benchSalesTable()); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		Shards: k, SampleSize: benchShardTotalSample / k, Seed: 7,
	}); err != nil {
		b.Fatal(err)
	}
	runNarrowWorkload(b, eng)
}
