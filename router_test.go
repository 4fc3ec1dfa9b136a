package dbest_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/exact"
)

// Error-budget router tests: a WITHIN <p>% query must serve from the
// models when the predicted relative error fits the budget, fall through
// to the exact scan when it doesn't (or when the bounds are unknown), and
// learn from each fallback's model-vs-exact ground truth.

// TestWithinServesHealthyModel: a wide-range COUNT has a tiny predicted
// error (the binomial law vanishes as coverage approaches the full
// domain), so a 2% budget is served from the model and counted as a hit.
func TestWithinServesHealthyModel(t *testing.T) {
	eng, tb := newSalesEngine(t, 50000)
	res, err := eng.Query(
		"SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 0 AND 1823 WITHIN 2%")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q, want model (healthy model within budget)", res.Source)
	}
	a := res.Aggregates[0]
	if a.PredRelErr <= 0 || a.PredRelErr > 0.02 {
		t.Fatalf("PredRelErr = %v, want in (0, 0.02]", a.PredRelErr)
	}
	want := exactAnswer(t, tb, exact.Count, "ss_sales_price", "ss_sold_date_sk", 0, 1823)
	if re := relErr(a.Value, want); re > 0.02 {
		t.Fatalf("served answer missed its own budget: rel err %v (got %v, want %v)", re, a.Value, want)
	}
	st := eng.RouterStats()
	if st.ModelHits != 1 || st.ExactFallbacks != 0 {
		t.Fatalf("RouterStats = %+v, want 1 hit / 0 fallbacks", st)
	}
}

// TestWithinFallsBackToExact: a budget deliberately set below the model's
// own predicted error must fall through to the exact scan — the answer is
// exact, the fallback counter moves, and the ground truth feeds the
// calibration ring.
func TestWithinFallsBackToExact(t *testing.T) {
	eng, tb := newSalesEngine(t, 50000)
	base := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 140"
	probe, err := eng.Query(base)
	if err != nil {
		t.Fatal(err)
	}
	pred := probe.Aggregates[0].PredRelErr
	if pred <= 0 {
		t.Fatalf("probe PredRelErr = %v, want > 0", pred)
	}

	res, err := eng.Query(fmt.Sprintf("%s WITHIN %g%%", base, pred*100/2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("source = %q, want exact (budget below predicted error)", res.Source)
	}
	want := exactAnswer(t, tb, exact.Avg, "ss_sales_price", "ss_sold_date_sk", 100, 140)
	if got := res.Aggregates[0].Value; got != want {
		t.Fatalf("fallback answer = %v, want exact %v", got, want)
	}
	st := eng.RouterStats()
	if st.ExactFallbacks != 1 {
		t.Fatalf("ExactFallbacks = %d, want 1", st.ExactFallbacks)
	}
	if st.Observations == 0 || st.TrackedModels != 1 {
		t.Fatalf("RouterStats = %+v, want the fallback's ground truth recorded", st)
	}
}

// TestWithinCalibrationLearning: when a model over-predicts its error,
// each fallback observes an observed/predicted ratio below 1 and the
// calibration factor drifts down — so a budget between the observed and
// predicted error is refused at first and served from the model once the
// router has learned the model is better than it claims.
func TestWithinCalibrationLearning(t *testing.T) {
	eng, tb := newSalesEngine(t, 50000)
	base := "SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 900"
	probe, err := eng.Query(base)
	if err != nil {
		t.Fatal(err)
	}
	pred := probe.Aggregates[0].PredRelErr
	want := exactAnswer(t, tb, exact.Count, "ss_sales_price", "ss_sold_date_sk", 200, 900)
	obs := relErr(probe.Aggregates[0].Value, want)
	// The budget sits strictly between observed and predicted error, with
	// headroom on both sides so the learned factor (>= the 0.25 clamp) can
	// admit it. The seed data satisfies this by a wide margin; if it ever
	// stops to, the harness says so instead of silently passing.
	tol := pred / 2
	if m := obs * 1.25; m > tol {
		tol = m
	}
	if tol >= pred {
		t.Skipf("model under-predicts its error here (obs %v >= pred %v); no room to learn", obs, pred)
	}

	sql := fmt.Sprintf("%s WITHIN %g%%", base, tol*100)
	first, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != "exact" {
		t.Fatalf("uncalibrated source = %q, want exact (tol %v < pred %v)", first.Source, tol, pred)
	}

	served := false
	for i := 0; i < 40 && !served; i++ {
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		served = res.Source == "model"
	}
	if !served {
		t.Fatalf("router never learned to serve tol %v (pred %v, obs %v): %+v",
			tol, pred, obs, eng.RouterStats())
	}
	st := eng.RouterStats()
	if st.ModelHits == 0 || st.ExactFallbacks == 0 || st.Observations == 0 {
		t.Fatalf("RouterStats = %+v, want hits, fallbacks and observations all > 0", st)
	}
}

// TestWithinUnknownBoundsFallsBack: multivariate answers carry no error
// bounds (PredRelErr == 0), and a budget nothing backs must never be
// served from the model — and must not feed the calibration ring.
func TestWithinUnknownBoundsFallsBack(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 30000, Seed: 5})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk", "ss_wholesale_cost"},
		YCol: "ss_sales_price", SampleSize: 5000, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 100 AND 900 AND ss_wholesale_cost BETWEEN 5 AND 60 WITHIN 50%`
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("source = %q, want exact (unknown bounds never fit a budget)", res.Source)
	}
	st := eng.RouterStats()
	if st.ExactFallbacks != 1 {
		t.Fatalf("ExactFallbacks = %d, want 1", st.ExactFallbacks)
	}
	if st.Observations != 0 {
		t.Fatalf("Observations = %d, want 0 (no predicted error to calibrate against)", st.Observations)
	}
}

// TestWithinIgnoredOffModelPath: WITHIN on a query the planner routes to
// the exact scan anyway is a no-op — the router only arbitrates model-path
// plans, so its counters stay untouched.
func TestWithinIgnoredOffModelPath(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	res, err := eng.Query(
		"SELECT AVG(ss_quantity) FROM store_sales WHERE ss_wholesale_cost BETWEEN 5 AND 10 WITHIN 5%")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("source = %q, want exact (unmodeled column)", res.Source)
	}
	st := eng.RouterStats()
	if st.ModelHits != 0 || st.ExactFallbacks != 0 {
		t.Fatalf("RouterStats = %+v, want untouched off the model path", st)
	}
}

// TestWithinBatchNotMemoized: tolerance-routed answers must not be
// memoized into the per-generation result cache — the routing decision
// depends on live calibration state, so a later batch (or Query) hitting
// the same shape must re-run the router, not replay a cached verdict.
// (Duplicates inside one batch still share a single execution: that is
// shape dedup, and all copies of the shape get the same routed answer.)
func TestWithinBatchNotMemoized(t *testing.T) {
	eng, _ := newSalesEngine(t, 50000)
	sql := "SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 0 AND 1823 WITHIN 2%"
	for round := 1; round <= 3; round++ {
		got := eng.QueryBatch([]string{sql, sql})
		for i, br := range got {
			if br.Err != nil {
				t.Fatalf("round %d batch[%d]: %v", round, i, br.Err)
			}
			if br.Result.Source != "model" {
				t.Fatalf("round %d batch[%d] source = %q, want model", round, i, br.Result.Source)
			}
		}
		st := eng.RouterStats()
		if n := st.ModelHits + st.ExactFallbacks; n != uint64(round) {
			t.Fatalf("after round %d: %d routed queries, want %d (tolerance answers must not be memoized)",
				round, n, round)
		}
	}
}

// TestWithinParseErrors: malformed WITHIN clauses must be rejected at
// parse time, not silently dropped.
func TestWithinParseErrors(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	for _, sql := range []string{
		"SELECT COUNT(ss_sales_price) FROM store_sales WITHIN 2",    // missing %
		"SELECT COUNT(ss_sales_price) FROM store_sales WITHIN 0%",   // zero budget
		"SELECT COUNT(ss_sales_price) FROM store_sales WITHIN 101%", // > 100
	} {
		if _, err := eng.Query(sql); err == nil || !strings.Contains(err.Error(), "WITHIN") &&
			!strings.Contains(err.Error(), "expected") {
			t.Errorf("%q: err = %v, want a WITHIN parse error", sql, err)
		}
	}
}
