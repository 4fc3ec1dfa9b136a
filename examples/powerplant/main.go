// Powerplant: exploratory analytics on the Combined Cycle Power Plant
// dataset (the paper's §4.3 workload) — descriptive statistics of energy
// output across ambient-temperature subspaces, answered from models, with
// exact answers and relative errors printed for comparison.
//
// Run with: go run ./examples/powerplant
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"dbest"
	"dbest/internal/datagen"
)

func main() {
	// The real CCPP set has 9 568 rows; the paper scales it up. We generate
	// a 2M-row statistically-shaped equivalent (see README, "Reproducing the
	// paper's evaluation").
	tb := datagen.ScaleUp(datagen.CCPP(0, 7), 2_000_000, 0.005, 7)

	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}
	// Train one model pair per predictor of interest.
	for _, x := range []string{"T", "AP", "RH"} {
		info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
			Table: "ccpp", XCols: []string{x}, YCol: "EP", SampleSize: 10_000, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model %-22s %8d bytes, built in %v\n",
			info.Key, info.ModelBytes, (info.SampleTime + info.TrainTime).Round(1e6))
	}

	fmt.Println("\nHow does energy output respond to ambient temperature?")
	fmt.Printf("%-14s %14s %14s %10s\n", "T range (°C)", "AVG(EP) model", "AVG(EP) exact", "rel err")
	for lo := 2.0; lo < 36; lo += 7 {
		hi := lo + 7
		sql := fmt.Sprintf("SELECT AVG(EP) FROM ccpp WHERE T BETWEEN %g AND %g", lo, hi)
		approx, err := eng.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		// Exact comparison: temporarily route around the model by querying
		// a column set with no model (COUNT over T is modeled, AVG(EP) by
		// exact scan through a second engine).
		exactEng := dbest.New(nil)
		if err := exactEng.RegisterTable(tb); err != nil {
			log.Fatal(err)
		}
		truth, err := exactEng.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		re := math.Abs(approx.Aggregates[0].Value-truth.Aggregates[0].Value) /
			math.Abs(truth.Aggregates[0].Value)
		fmt.Printf("[%4.0f, %4.0f)  %14.2f %14.2f %9.2f%%\n",
			lo, hi, approx.Aggregates[0].Value, truth.Aggregates[0].Value, 100*re)
	}

	fmt.Println("\nDescriptive statistics of EP for a hot afternoon (T in [28, 34]):")
	for _, af := range []string{"COUNT", "AVG", "SUM", "VARIANCE", "STDDEV"} {
		sql := fmt.Sprintf("SELECT %s(EP) FROM ccpp WHERE T BETWEEN 28 AND 34", af)
		res, err := eng.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s = %16.3f   (%v, source=%s)\n",
			af, res.Aggregates[0].Value, res.Elapsed.Round(1000), res.Source)
	}

	// Percentiles of the temperature distribution itself (density-based).
	fmt.Println("\nTemperature distribution percentiles (from the density estimator):")
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		sql := fmt.Sprintf("SELECT PERCENTILE(T, %g) FROM ccpp", p)
		res, err := eng.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  p%-4.0f = %6.2f °C\n", p*100, res.Aggregates[0].Value)
	}
}
