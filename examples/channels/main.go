// Channels: nominal categorical attributes (paper §2.3) and the model-only
// analytics API (paper §1, contributions i–v). One model pair per sales
// channel answers equality-predicate queries; the same models impute
// missing values, discover attribute relationships, and render subspace
// descriptions — all without touching the base data.
//
// Run with: go run ./examples/channels
package main

import (
	"context"
	"fmt"
	"log"

	"dbest"
	"dbest/internal/datagen"
)

func main() {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 400_000, Seed: 9})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}

	// One (D, R) model pair per value of the nominal ss_channel column.
	info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_sales_price",
		NominalBy: "ss_channel", SampleSize: 10_000, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d per-channel models (%0.2f MB)\n\n",
		info.NumModels, float64(info.ModelBytes)/(1<<20))

	fmt.Println("Average selling price by channel for mid-priced items (list 40-80):")
	for _, ch := range []string{"store", "web", "catalog"} {
		res, err := eng.Query(fmt.Sprintf(
			`SELECT AVG(ss_sales_price), COUNT(ss_sales_price) FROM store_sales
			 WHERE ss_channel = '%s' AND ss_list_price BETWEEN 40 AND 80`, ch))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s avg ≈ %6.2f over ≈ %8.0f sales  (%v)\n",
			ch, res.Aggregates[0].Value, res.Aggregates[1].Value, res.Elapsed.Round(1000))
	}

	// The analytics API runs on any trained univariate model pair.
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_list_price"}, YCol: "ss_wholesale_cost",
		SampleSize: 10_000, Seed: 9,
	}); err != nil {
		log.Fatal(err)
	}

	rel, err := eng.DiscoverRelationship("store_sales", "ss_list_price", "ss_wholesale_cost")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrelationship %s → %s: %s, model correlation %.3f, conditional mean spans [%.1f, %.1f]\n",
		rel.XCol, rel.YCol, rel.Direction, rel.Correlation, rel.YMin, rel.YMax)

	// Impute a missing wholesale cost for a hypothesized list price.
	for _, price := range []float64{25, 75, 150} {
		cost, err := eng.Impute("store_sales", "ss_list_price", "ss_wholesale_cost", price)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("imputed wholesale cost at list price %5.0f ≈ %6.2f\n", price, cost)
	}

	// Describe a data subspace from the models (Eqs. 1-9).
	d, err := eng.Describe("store_sales", "ss_list_price", "ss_wholesale_cost", 50, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubspace list price ∈ [%.0f, %.0f]:\n", d.Lb, d.Ub)
	fmt.Printf("  count ≈ %.0f   avg cost ≈ %.2f   stddev ≈ %.2f\n", d.Count, d.Avg, d.StdDev)
	fmt.Printf("  list-price quartiles within range: %.1f / %.1f / %.1f\n", d.XQ1, d.XMedian, d.XQ3)

	// Visualize the density and the fitted regression as sparklines.
	curve, err := eng.Curve("store_sales", "ss_list_price", "ss_wholesale_cost", 48)
	if err != nil {
		log.Fatal(err)
	}
	dens := make([]float64, len(curve))
	yhat := make([]float64, len(curve))
	for i, p := range curve {
		dens[i] = p.Density
		yhat[i] = p.YHat
	}
	fmt.Printf("\nD(list price):  %s\n", dbest.Sparkline(dens))
	fmt.Printf("R(list price):  %s\n", dbest.Sparkline(yhat))
	fmt.Printf("                %-10.0f ... %10.0f\n", curve[0].X, curve[len(curve)-1].X)
}
