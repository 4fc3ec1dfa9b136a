package dbest_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"dbest"
)

// Engine-level grid lifecycle tests: the evaluation grid must survive gob
// persistence, be rebuilt by the background refresher on retrain, and be
// rebuilt at load for a catalog saved without one (grid_load_internal_test.go).

// explainKernel returns the kernel= tag of the plan for sql.
func explainKernel(t *testing.T, eng *dbest.Engine, sql string) string {
	t.Helper()
	plan, err := eng.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(plan.Tree, "kernel=")
	if i < 0 {
		t.Fatalf("plan has no kernel tag:\n%s", plan.Tree)
	}
	rest := plan.Tree[i+len("kernel="):]
	if j := strings.IndexAny(rest, " \n"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// queryKernelDelta runs sql and returns how far the grid-hit and
// grid-fallback counters moved. The counters are process-wide, so the
// delta is only meaningful because tests in one binary run sequentially.
func queryKernelDelta(t *testing.T, eng *dbest.Engine, sql string) (hits, fallbacks uint64) {
	t.Helper()
	before := eng.EvalKernelStats()
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q, want model", res.Source)
	}
	after := eng.EvalKernelStats()
	return after.GridHits - before.GridHits, after.GridFallbacks - before.GridFallbacks
}

// TestGridSurvivesPersistence saves a grid-bearing model with SaveModels
// and reloads it into a fresh engine: the reloaded model must keep serving
// from the grid, not silently fall back to quadrature.
func TestGridSurvivesPersistence(t *testing.T) {
	eng := newStreamEngine(t, 4000)
	sumSQL := "SELECT SUM(y) FROM stream WHERE x BETWEEN 100 AND 900"
	if k := explainKernel(t, eng, sumSQL); k != "grid" {
		t.Fatalf("pre-save kernel = %q, want grid", k)
	}
	want, err := eng.Query(sumSQL)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/models.gob"
	if err := eng.SaveModels(path); err != nil {
		t.Fatal(err)
	}
	eng2 := dbest.New(nil)
	if err := eng2.RegisterTable(streamTable(4000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	if k := explainKernel(t, eng2, sumSQL); k != "grid" {
		t.Fatalf("reloaded kernel = %q, want grid", k)
	}
	hits, fallbacks := queryKernelDelta(t, eng2, sumSQL)
	if hits == 0 || fallbacks != 0 {
		t.Fatalf("reloaded query moved hits=%d fallbacks=%d, want grid-only", hits, fallbacks)
	}
	got, err := eng2.Query(sumSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Aggregates[0].Value != want.Aggregates[0].Value {
		t.Fatalf("reloaded SUM = %g, original %g — grid tables changed across gob",
			got.Aggregates[0].Value, want.Aggregates[0].Value)
	}
}

// TestRefresherRebuildsGrid verifies a background retrain produces a model
// that still serves from a grid — the rebuild rides the trainPair funnel,
// so a refresh must not degrade the ensemble to the quadrature path.
func TestRefresherRebuildsGrid(t *testing.T) {
	const base = 4000
	eng := newStreamEngine(t, base)
	defer eng.StopRefresher()
	sumSQL := "SELECT SUM(y) FROM stream WHERE x BETWEEN 100 AND 900"
	if k := explainKernel(t, eng, sumSQL); k != "grid" {
		t.Fatalf("pre-refresh kernel = %q, want grid", k)
	}

	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval:  5 * time.Millisecond,
		Threshold: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Append("stream", streamRows(base, 17)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng.RefreshStats().Refreshes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background refresher never retrained; staleness: %+v", eng.ModelStaleness())
		}
		time.Sleep(2 * time.Millisecond)
	}
	eng.StopRefresher()

	if k := explainKernel(t, eng, sumSQL); k != "grid" {
		t.Fatalf("post-refresh kernel = %q, want grid", k)
	}
	hits, fallbacks := queryKernelDelta(t, eng, sumSQL)
	if hits == 0 || fallbacks != 0 {
		t.Fatalf("post-refresh query moved hits=%d fallbacks=%d, want grid-only", hits, fallbacks)
	}
}

// TestLoadedCatalogAnswersBitEqual: the density estimator's kernel and
// prefix tables are derived state, built on first use and never written. So
// a catalog saved from an engine that built them (training evaluates the
// density) and one saved from an engine that loaded it are the same bytes,
// and the loaded engine answers every query bit for bit like the engine
// that trained.
func TestLoadedCatalogAnswersBitEqual(t *testing.T) {
	eng := newStreamEngine(t, 4000) // a model x → y
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "stream", XCols: []string{"y"}, YCol: "x", SampleSize: 1000, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := eng.SaveModels(dir + "/trained.gob"); err != nil {
		t.Fatal(err)
	}
	loaded := dbest.New(nil)
	if err := loaded.RegisterTable(streamTable(4000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadModels(dir + "/trained.gob"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT AVG(x) FROM stream WHERE y BETWEEN 300 AND 1500",
		"SELECT COUNT(*) FROM stream WHERE y BETWEEN 300 AND 1500",
		"SELECT SUM(x) FROM stream WHERE y BETWEEN 0 AND 2100",
		"SELECT VARIANCE(x) FROM stream WHERE y BETWEEN 900 AND 1000",
		"SELECT PERCENTILE(y, 0.9) FROM stream WHERE y BETWEEN 300 AND 1500",
		"SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900",
		"SELECT PERCENTILE(x, 0.25) FROM stream WHERE x BETWEEN 100 AND 900",
	} {
		want, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, err := loaded.Query(sql)
		if err != nil {
			t.Fatalf("%s on the loaded catalog: %v", sql, err)
		}
		if got.Source != "model" || got.Aggregates[0].Value != want.Aggregates[0].Value ||
			got.Aggregates[0].PredRelErr != want.Aggregates[0].PredRelErr {
			t.Errorf("%s: loaded %+v, trained %+v", sql, got.Aggregates[0], want.Aggregates[0])
		}
	}
	if err := loaded.SaveModels(dir + "/loaded.gob"); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(dir + "/trained.gob")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/loaded.gob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("a catalog saved after loading is %d bytes, the one it loaded %d: derived state reached gob", len(b), len(a))
	}
}
