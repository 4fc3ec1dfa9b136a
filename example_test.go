package dbest_test

import (
	"context"
	"fmt"
	"log"

	"dbest"
)

// ExampleEngine demonstrates the train-then-query workflow on a tiny
// deterministic table: y is exactly 2x, so the model's AVG over a range is
// predictable enough to print.
func ExampleEngine() {
	// A toy table: x = 0..9999, y = 2x.
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2 * float64(i)
	}
	tb := dbest.NewTable("toy")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)

	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "toy", XCols: []string{"x"}, YCol: "y", SampleSize: 4000, Seed: 1,
	}); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Query("SELECT AVG(y) FROM toy WHERE x BETWEEN 4000 AND 6000")
	if err != nil {
		log.Fatal(err)
	}
	// E[y | 4000 <= x <= 6000] = 10000; the model answer is within ~1%.
	v := res.Aggregates[0].Value
	fmt.Println(res.Source, v > 9800 && v < 10200)
	// Output: model true
}

// ExampleEngine_Explain shows plan introspection: the engine reports which
// trained model would answer a query before running it.
func ExampleEngine_Explain() {
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i % 7)
	}
	tb := dbest.NewTable("t")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "t", XCols: []string{"x"}, YCol: "y", SampleSize: 500, Seed: 1,
	}); err != nil {
		log.Fatal(err)
	}
	p, err := eng.Explain("SELECT SUM(y) FROM t WHERE x BETWEEN 10 AND 90")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.Path, p.ModelKeys[0])
	p2, err := eng.Explain("SELECT SUM(z) FROM t WHERE x BETWEEN 10 AND 90")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p2.Path)
	// Output:
	// model t|x|y|
	// exact
}

// ExampleSparkline renders a quick terminal visualization.
func ExampleSparkline() {
	fmt.Println(dbest.Sparkline([]float64{1, 2, 4, 8, 4, 2, 1}))
	// Output: ▁▂▄█▄▂▁
}
