package dbest_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"dbest"
	"dbest/internal/datagen"
)

// BenchmarkCreateModel trains the four model kinds the serving benchmark
// sets up (bench/setup.go's modelSpecs over its table — copied, bench/ is
// its own module and imports nothing back), so a training change is
// measured per kind and per stage without a bench run: each sub-benchmark
// reports the stage split of TrainInfo.Stages as fit-ms/op, grid-ms/op and
// bounds-ms/op beside ns/op.
func BenchmarkCreateModel(b *testing.B) {
	const (
		fact               = "store_sales"
		date, store        = "ss_sold_date_sk", "ss_store_sk"
		qty, cost          = "ss_quantity", "ss_wholesale_cost"
		list, sales        = "ss_list_price", "ss_sales_price"
		profit, channelCol = "ss_net_profit", "ss_channel"
	)
	specs := []struct {
		kind string
		spec dbest.ModelSpec
	}{
		{"plain", dbest.ModelSpec{Table: fact, XCols: []string{date}, YCol: sales, SampleSize: 10000, Seed: 1}},
		{"grouped", dbest.ModelSpec{Table: fact, XCols: []string{list}, YCol: profit, GroupBy: store, SampleSize: 2000, Seed: 1}},
		{"sharded", dbest.ModelSpec{Table: fact, XCols: []string{cost}, YCol: qty, Shards: 8, SampleSize: 10000, Seed: 1}},
		{"nominal", dbest.ModelSpec{Table: fact, XCols: []string{list}, YCol: sales, NominalBy: channelCol, SampleSize: 10000, Seed: 1}},
	}
	table := sync.OnceValue(func() *dbest.Table {
		return datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 200_000, Stores: 16, Seed: 1})
	})
	for _, s := range specs {
		b.Run(s.kind, func(b *testing.B) {
			eng := dbest.New(nil)
			if err := eng.RegisterTable(table()); err != nil {
				b.Fatal(err)
			}
			var st dbest.StageTimes
			for b.Loop() {
				spec := s.spec
				info, err := eng.CreateModel(context.Background(), &spec)
				if err != nil {
					b.Fatal(err)
				}
				st.Add(info.Stages)
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(st.Density+st.Regressor), "fit-ms/op")
			b.ReportMetric(ms(st.Grid), "grid-ms/op")
			b.ReportMetric(ms(st.Bounds), "bounds-ms/op")
		})
	}
}
