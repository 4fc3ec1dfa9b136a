package dbest

import (
	"context"
	"math"
	"testing"
)

// TestWithinRouteNeverConsultsDensity drives the invariant "serving never
// reads D" through the whole engine: after the published model's density
// estimator is removed, a WITHIN-routed query still serves from the model
// with the same answer and the same predicted error (the router's decision
// input), and Describe — the analytics panel over the same kernel — is
// unchanged too.
func TestWithinRouteNeverConsultsDensity(t *testing.T) {
	eng := New(nil)
	if err := eng.RegisterTable(snapTestTable("t", 20000, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &ModelSpec{
		Table: "t", XCols: []string{"x"}, YCol: "y", SampleSize: 4000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	sqls := []string{
		"SELECT COUNT(y) FROM t WHERE x BETWEEN 5 AND 990 WITHIN 10%",
		"SELECT AVG(y), SUM(y), STDDEV(y) FROM t WHERE x BETWEEN 100 AND 900 WITHIN 25%",
		"SELECT PERCENTILE(x, 0.9) FROM t WHERE x BETWEEN 100 AND 900 WITHIN 25%",
	}
	run := func() ([]*Result, *Description) {
		var out []*Result
		for _, sql := range sqls {
			res, err := eng.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if res.Source != "model" {
				t.Fatalf("%s: source = %q, want model", sql, res.Source)
			}
			out = append(out, res)
		}
		d, err := eng.Describe("t", "x", "y", 100, 900)
		if err != nil {
			t.Fatal(err)
		}
		return out, d
	}
	want, wantDesc := run()

	ms, err := eng.findUni("t", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Uni.HasGrid() {
		t.Fatal("model has no grid")
	}
	// Single goroutine, so mutating the published (otherwise immutable) model
	// in place is safe — and reaches the cached plans, which hold this pointer.
	ms.Uni.D = nil
	got, gotDesc := run()

	for i := range want {
		for j, w := range want[i].Aggregates {
			g := got[i].Aggregates[j]
			if g.Value != w.Value || g.PredRelErr != w.PredRelErr || g.CI != w.CI || math.IsNaN(g.Value) || !(g.PredRelErr > 0) {
				t.Fatalf("%s: poisoned %+v, clean %+v", sqls[i], g, w)
			}
		}
	}
	if *gotDesc != *wantDesc || math.IsNaN(gotDesc.StdDev) {
		t.Fatalf("Describe: poisoned %+v, clean %+v", *gotDesc, *wantDesc)
	}
	if st := eng.RouterStats(); st.ModelHits != uint64(2*len(sqls)) || st.ExactFallbacks != 0 {
		t.Fatalf("RouterStats = %+v, want %d model hits and no fallbacks (the second pass must re-run the plans)", st, 2*len(sqls))
	}
}
