// Quickstart: train DBEst models over a synthetic sensor table and answer
// approximate aggregate queries from the models alone, comparing each
// answer with the exact result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"dbest"
)

func main() {
	// 1. Build a table: one day of 1 Hz sensor readings — timestamp and a
	//    temperature that drifts sinusoidally with noise.
	const n = 500_000
	rng := rand.New(rand.NewSource(42))
	ts := make([]float64, n)
	temp := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)
		hour := float64(i) / float64(n) * 24
		temp[i] = 15 + 8*math.Sin((hour-9)/24*2*math.Pi) + rng.NormFloat64()
	}
	tb := dbest.NewTable("sensor")
	tb.AddFloatColumn("ts", ts)
	tb.AddFloatColumn("temp", temp)

	// 2. Register the table and train a model pair for range predicates on
	//    ts with aggregates over temp, from a 10k-row uniform sample.
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}
	info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "sensor", XCols: []string{"ts"}, YCol: "temp", SampleSize: 10_000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s: %d bytes of model state (vs %d rows of data)\n",
		info.Key, info.ModelBytes, n)

	// 3. Ask questions. The models answer; the base table is only used
	//    here to show the exact answers next to the approximations.
	queries := []string{
		"SELECT COUNT(temp) FROM sensor WHERE ts BETWEEN 100000 AND 200000",
		"SELECT AVG(temp) FROM sensor WHERE ts BETWEEN 100000 AND 200000",
		"SELECT SUM(temp) FROM sensor WHERE ts BETWEEN 300000 AND 320000",
		"SELECT STDDEV(temp) FROM sensor WHERE ts BETWEEN 0 AND 500000",
		"SELECT PERCENTILE(ts, 0.9) FROM sensor",
	}
	for _, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-78s => %12.4f  [%s, %v]\n",
			q, res.Aggregates[0].Value, res.Source, res.Elapsed.Round(1000))
	}

	// 4. Drop the base table: model-served queries keep working — DBEst
	//    needs no data at query time.
	eng.DropTable("sensor")
	res, err := eng.Query("SELECT AVG(temp) FROM sensor WHERE ts BETWEEN 50000 AND 60000")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter dropping the table, AVG(temp) = %.4f (source=%s)\n",
		res.Aggregates[0].Value, res.Source)
}
