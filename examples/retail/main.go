// Retail: the paper's TPC-DS-style warehouse scenario — GROUP BY queries
// over per-store models (§4.6), a fact ⨝ dimension join answered from
// models trained on the precomputed join (§4.8), and catalog persistence:
// models are saved to disk, the engine restarted, and queries keep working
// without any base data.
//
// Run with: go run ./examples/retail
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dbest"
	"dbest/internal/datagen"
)

func main() {
	sales := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 1_000_000, Stores: 57, Seed: 3})
	stores := datagen.Store(57, 3)

	eng := dbest.New(nil)
	if err := eng.RegisterTable(sales); err != nil {
		log.Fatal(err)
	}
	if err := eng.RegisterTable(stores); err != nil {
		log.Fatal(err)
	}

	// Per-store models: one (D, R) pair per ss_store_sk value, trained in
	// parallel, sized ~2k sample rows per group.
	info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 2_000, GroupBy: "ss_store_sk", Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d per-store models (%0.1f MB) in %v\n",
		info.NumModels, float64(info.ModelBytes)/(1<<20),
		(info.SampleTime + info.TrainTime).Round(1e6))

	// The paper's §2.2 example query: revenue per store for a date range.
	res, err := eng.Query(`SELECT ss_store_sk, SUM(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 400 AND 1200 GROUP BY ss_store_sk`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrevenue by store (date 400-1200), %d groups in %v:\n",
		len(res.Aggregates[0].Groups), res.Elapsed.Round(1000))
	for _, g := range res.Aggregates[0].Groups[:5] {
		fmt.Printf("  store %2d  ≈ %14.0f\n", g.Group, g.Value)
	}
	fmt.Println("  ... (first 5 of", len(res.Aggregates[0].Groups), "groups)")

	// Join support (§2.2 approach 1): precompute store_sales ⨝ store,
	// sample it, train, discard. Queries then range over the dimension
	// attribute without any join at query time.
	jinfo, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales",
		Join:  &dbest.JoinSpec{Table: "store", LeftKey: "ss_store_sk", RightKey: "s_store_sk"},
		XCols: []string{"s_number_of_employees"}, YCol: "ss_net_profit",
		SampleSize: 10_000, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njoin models: %0.2f MB built in %v (join precompute included)\n",
		float64(jinfo.ModelBytes)/(1<<20), (jinfo.SampleTime + jinfo.TrainTime).Round(1e6))

	jres, err := eng.Query(`SELECT AVG(ss_net_profit) FROM store_sales JOIN store
		ON ss_store_sk = s_store_sk WHERE s_number_of_employees BETWEEN 220 AND 260`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("avg profit at mid-sized stores ≈ %.2f (%v, source=%s)\n",
		jres.Aggregates[0].Value, jres.Elapsed.Round(1000), jres.Source)

	// Persistence: save the catalog, start a fresh engine with NO tables,
	// load the models, and answer the same queries.
	dir, err := os.MkdirTemp("", "dbest-retail")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "models.gob")
	if err := eng.SaveModels(path); err != nil {
		log.Fatal(err)
	}
	fresh := dbest.New(nil)
	if err := fresh.LoadModels(path); err != nil {
		log.Fatal(err)
	}
	res2, err := fresh.Query(`SELECT ss_store_sk, AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 400 AND 1200 GROUP BY ss_store_sk`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrestarted engine with models only: %d groups answered in %v (no base data loaded)\n",
		len(res2.Aggregates[0].Groups), res2.Elapsed.Round(1000))
}
