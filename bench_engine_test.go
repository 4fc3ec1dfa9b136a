package dbest_test

import (
	"context"
	"sync"
	"testing"

	"dbest"
	"dbest/internal/datagen"
)

// benchEngine is built once and shared by the query micro-benchmarks.
var (
	benchEngOnce sync.Once
	benchEng     *dbest.Engine
	benchEngErr  error
)

func engineForBench() (*dbest.Engine, error) {
	benchEngOnce.Do(func() {
		tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 200_000, Seed: 1})
		benchEng = dbest.New(nil)
		if err := benchEng.RegisterTable(tb); err != nil {
			benchEngErr = err
			return
		}
		_, benchEngErr = benchEng.CreateModel(context.Background(), &dbest.ModelSpec{
			Table: "store_sales", XCols: []string{"ss_list_price"},
			YCol: "ss_wholesale_cost", SampleSize: 10_000, Seed: 1,
		})
	})
	return benchEng, benchEngErr
}

func benchQuery(b *testing.B, sql string) {
	b.Helper()
	eng, err := engineForBench()
	if err != nil {
		b.Fatal(err)
	}
	// Warm parse + one evaluation outside the timer.
	if _, err := eng.Query(sql); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}
