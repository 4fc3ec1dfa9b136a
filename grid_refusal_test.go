package dbest_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"dbest"
)

// ungriddableTable is 2 000 rows whose x column no evaluation grid can
// tabulate: "outlier" is x in [0, 100) plus one row at 1e12, whose support
// leaves the panels near the data too wide to follow the CDF; "ulps" is x
// a few ulps above 1, too narrow for float64 to place knots in.
func ungriddableTable(kind string) *dbest.Table {
	const n = 2000
	xs, ys := make([]float64, n), make([]float64, n)
	g, ch := make([]int64, n), make([]string, n)
	for i := range xs {
		if kind == "ulps" {
			xs[i] = 1 + float64(i%4)*0x1p-52
		} else {
			xs[i] = float64(i%500) / 5
		}
		ys[i] = 10 + float64(i%7)
		g[i] = int64(i % 2)
		ch[i] = []string{"web", "store"}[i%2]
	}
	if kind == "outlier" {
		xs[1001] = 1e12
	}
	tb := dbest.NewTable("t")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	tb.AddIntColumn("g", g)
	tb.AddStringColumn("ch", ch)
	return tb
}

// TestCreateModelRefusesUngriddableColumn: a model every query would have to
// answer without a grid is refused at CREATE MODEL, whatever its kind, with
// an error naming the column and the grid, and nothing reaches the catalog.
func TestCreateModelRefusesUngriddableColumn(t *testing.T) {
	specs := map[string]dbest.ModelSpec{
		"plain":   {},
		"grouped": {GroupBy: "g"},
		"nominal": {NominalBy: "ch"},
		"sharded": {Shards: 2},
	}
	for _, kind := range []string{"outlier", "ulps"} {
		for name, spec := range specs {
			eng := dbest.New(nil)
			if err := eng.RegisterTable(ungriddableTable(kind)); err != nil {
				t.Fatal(err)
			}
			spec.Table, spec.XCols, spec.YCol = "t", []string{"x"}, "y"
			spec.SampleSize, spec.Seed = 2000, 1
			_, err := eng.CreateModel(context.Background(), &spec)
			if err == nil {
				t.Errorf("%s model over %s x: trained", name, kind)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, `column "x"`) || !strings.Contains(msg, "grid") {
				t.Errorf("%s model over %s x: error %q names neither the column nor the grid", name, kind, msg)
			}
			if len(eng.ModelKeys()) != 0 {
				t.Errorf("%s model over %s x: a refused build left %v in the catalog", name, kind, eng.ModelKeys())
			}
		}
	}
}

// TestRefresherKeepsModelWhenGridRefused: rows appended past the threshold
// that make the column ungriddable fail the retrain. The refresher counts
// one failure naming the grid, and the model that was serving answers as
// before, bit for bit.
func TestRefresherKeepsModelWhenGridRefused(t *testing.T) {
	const base = 600 // below the 1 000-row sample: every row is sampled
	eng := newStreamEngine(t, base)
	defer eng.StopRefresher()
	sqls := []string{
		"SELECT AVG(y), SUM(y), COUNT(*) FROM stream WHERE x BETWEEN 100 AND 900",
		"SELECT PERCENTILE(x, 0.3) FROM stream WHERE x BETWEEN 0 AND 1000",
	}
	query := func() []dbest.AggregateResult {
		t.Helper()
		var out []dbest.AggregateResult
		for _, sql := range sqls {
			res, err := eng.Query(sql)
			if err != nil || res.Source != "model" {
				t.Fatalf("%s: %+v, %v", sql, res, err)
			}
			out = append(out, res.Aggregates...)
		}
		return out
	}
	before := query()
	rows := streamRows(300, 5)
	rows[7][0] = 1e12
	if _, err := eng.Append("stream", rows); err != nil {
		t.Fatal(err)
	}
	// One scan: the interval never elapses, the kick asks for exactly one.
	if err := eng.StartRefresher(&dbest.RefreshOptions{Interval: time.Hour, Threshold: 0.25}); err != nil {
		t.Fatal(err)
	}
	eng.RefreshNow()
	for deadline := time.Now().Add(30 * time.Second); eng.RefreshStats().Failures == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the refresher never attempted the retrain: %+v", eng.RefreshStats())
		}
	}
	eng.StopRefresher()
	if st := eng.RefreshStats(); st.Failures != 1 || st.Refreshes != 0 || !strings.Contains(st.LastError, `column "x"`) ||
		!strings.Contains(st.LastError, "grid") {
		t.Fatalf("RefreshStats = %+v, want one failure naming column x and the grid, and no refresh", st)
	}
	for i, a := range query() {
		if b := before[i]; a.Value != b.Value || a.PredRelErr != b.PredRelErr || a.CI != b.CI {
			t.Fatalf("after the refused retrain %s = %+v, before %+v", a.Name, a, b)
		}
	}
}
