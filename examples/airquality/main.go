// Airquality: hypothesis testing on the Beijing PM2.5 dataset (the paper's
// §4.5 workload) with multivariate range predicates (Eq. 10): how does
// pollution respond jointly to wind speed and temperature? The example also
// shows the engine's single-thread vs parallel GROUP BY evaluation.
//
// Run with: go run ./examples/airquality
package main

import (
	"context"
	"fmt"
	"log"

	"dbest"
	"dbest/internal/datagen"
)

func main() {
	tb := datagen.Beijing(500_000, 11)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}

	// Univariate models for single-predictor questions.
	for _, x := range []string{"IWS", "TEMP", "DEWP"} {
		if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
			Table: "beijing", XCols: []string{x}, YCol: "PM25", SampleSize: 10_000, Seed: 11,
		}); err != nil {
			log.Fatal(err)
		}
	}
	// A multivariate model for joint wind × temperature predicates.
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "beijing", XCols: []string{"IWS", "TEMP"}, YCol: "PM25", SampleSize: 8_000,
		Seed: 11,
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Does wind disperse pollution? AVG(PM25) by wind-speed band:")
	for _, band := range [][2]float64{{0, 2}, {2, 5}, {5, 12}, {12, 40}} {
		sql := fmt.Sprintf("SELECT AVG(PM25) FROM beijing WHERE IWS BETWEEN %g AND %g", band[0], band[1])
		res, err := eng.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wind %5.1f-%5.1f m/s: PM2.5 ≈ %7.2f   (%v)\n",
			band[0], band[1], res.Aggregates[0].Value, res.Elapsed.Round(1000))
	}

	fmt.Println("\nJoint hypothesis (multivariate predicate, Eq. 10):")
	fmt.Println("  calm AND cold vs windy AND warm —")
	for _, c := range []struct {
		name           string
		w0, w1, t0, t1 float64
	}{
		{"calm & cold ", 0, 2, -10, 5},
		{"windy & warm", 8, 40, 15, 35},
	} {
		sql := fmt.Sprintf(`SELECT AVG(PM25) FROM beijing
			WHERE IWS BETWEEN %g AND %g AND TEMP BETWEEN %g AND %g`, c.w0, c.w1, c.t0, c.t1)
		res, err := eng.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		cnt, err := eng.Query(fmt.Sprintf(`SELECT COUNT(PM25) FROM beijing
			WHERE IWS BETWEEN %g AND %g AND TEMP BETWEEN %g AND %g`, c.w0, c.w1, c.t0, c.t1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: AVG(PM25) ≈ %7.2f over ≈ %9.0f hours (source=%s)\n",
			c.name, res.Aggregates[0].Value, cnt.Aggregates[0].Value, res.Source)
	}

	// What-if: the models can answer for hypothesized conditions with no
	// matching need for fresh data collection — one of the paper's
	// qualitative benefits (imputation / hypothesis support).
	fmt.Println("\nWhat-if: pollution level expected at a hypothetical steady 6 m/s wind:")
	res, err := eng.Query("SELECT AVG(PM25) FROM beijing WHERE IWS BETWEEN 5.9 AND 6.1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  PM2.5 ≈ %.2f\n", res.Aggregates[0].Value)
}
