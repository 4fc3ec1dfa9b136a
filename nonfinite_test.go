package dbest_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"dbest"
)

// nonFiniteTable is 2 000 ordinary rows with one row whose col ("x" or "y")
// is bad. The sample sizes below cover the whole table, so the bad row is in
// every training sample.
func nonFiniteTable(col string, bad float64) *dbest.Table {
	const n = 2000
	xs, ys := make([]float64, n), make([]float64, n)
	g, ch := make([]int64, n), make([]string, n)
	for i := range xs {
		xs[i] = float64(i % 500)
		ys[i] = 3*xs[i] + float64(i%7)
		g[i] = int64(i % 2)
		ch[i] = []string{"web", "store"}[i%2]
	}
	if col == "x" {
		xs[1001] = bad
	} else {
		ys[1001] = bad
	}
	tb := dbest.NewTable("t")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	tb.AddIntColumn("g", g)
	tb.AddStringColumn("ch", ch)
	return tb
}

// TestCreateModelRejectsNonFinite: one NaN or infinity in a training column
// used to index the KDE's bins with int(NaN) and panic (x), or train NaN
// trees that then served NaN (y). Every model kind trains through the same
// funnel, which now answers with an error naming the column and the value.
func TestCreateModelRejectsNonFinite(t *testing.T) {
	specs := map[string]dbest.ModelSpec{
		"plain":   {},
		"grouped": {GroupBy: "g"},
		"nominal": {NominalBy: "ch"},
		"sharded": {Shards: 2},
	}
	for _, bad := range []struct {
		col, kind string
		v         float64
	}{
		{"x", "NaN", math.NaN()}, {"x", "infinite", math.Inf(1)}, {"x", "infinite", math.Inf(-1)},
		{"y", "NaN", math.NaN()}, {"y", "infinite", math.Inf(1)},
	} {
		for name, spec := range specs {
			eng := dbest.New(nil)
			if err := eng.RegisterTable(nonFiniteTable(bad.col, bad.v)); err != nil {
				t.Fatal(err)
			}
			spec.Table, spec.XCols, spec.YCol = "t", []string{"x"}, "y"
			spec.SampleSize, spec.Seed = 2000, 1
			_, err := eng.CreateModel(context.Background(), &spec)
			if err == nil {
				t.Errorf("%s model over %s = %v: trained", name, bad.col, bad.v)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, `"`+bad.col+`"`) || !strings.Contains(msg, bad.kind) {
				t.Errorf("%s model over %s = %v: error %q names neither the column nor the value", name, bad.col, bad.v, msg)
			}
			if len(eng.ModelKeys()) != 0 {
				t.Errorf("%s model over %s = %v: a failed build left %v in the catalog", name, bad.col, bad.v, eng.ModelKeys())
			}
		}
	}
}

// TestRefresherSurvivesNonFiniteAppend: the same bad value arriving by
// Append reaches training inside the refresher's goroutine, where a panic
// would take the process down. The retrain must fail as an error: counted,
// reported, and the model that was serving keeps serving.
func TestRefresherSurvivesNonFiniteAppend(t *testing.T) {
	const base = 600 // below the 1 000-row sample: every row is sampled
	eng := newStreamEngine(t, base)
	defer eng.StopRefresher()
	sql := "SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900"
	before, err := eng.Query(sql)
	if err != nil || before.Source != "model" {
		t.Fatalf("before: %+v, %v", before, err)
	}
	rows := streamRows(300, 5)
	rows[7][0] = math.NaN()
	if _, err := eng.Append("stream", rows); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartRefresher(&dbest.RefreshOptions{Interval: 2 * time.Millisecond, Threshold: 0.25}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng.RefreshStats().Failures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the refresher never attempted the retrain: %+v", eng.RefreshStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := eng.RefreshStats()
	if st.Refreshes != 0 || !strings.Contains(st.LastError, `"x"`) || !strings.Contains(st.LastError, "NaN") {
		t.Fatalf("RefreshStats = %+v, want a failure naming column x and NaN, and no refresh", st)
	}
	after, err := eng.Query(sql)
	if err != nil || after.Source != "model" || after.Aggregates[0].Value != before.Aggregates[0].Value {
		t.Fatalf("after the failed retrain: %+v, %v; want the old model's answer %v", after, err, before.Aggregates[0].Value)
	}
}
