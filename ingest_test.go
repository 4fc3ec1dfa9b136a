package dbest_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dbest"
)

// newStreamEngine builds an engine over a simple (x, y) table with a
// trained model, sized so retrains are fast enough for refresher tests.
func newStreamEngine(tb testing.TB, rows int) *dbest.Engine {
	tb.Helper()
	eng := dbest.New(nil)
	if err := eng.RegisterTable(streamTable(rows, 1)); err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "stream", XCols: []string{"x"}, YCol: "y", SampleSize: 1000, Seed: 1,
	}); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// streamTable generates rows of x uniform in [0, 1000) with y = 2x + noise.
func streamTable(rows int, seed int64) *dbest.Table {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = 2*xs[i] + rng.NormFloat64()
	}
	t := dbest.NewTable("stream")
	t.AddFloatColumn("x", xs)
	t.AddFloatColumn("y", ys)
	return t
}

// streamRows generates Append-shaped rows with the same distribution.
func streamRows(n int, seed int64) [][]interface{} {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]interface{}, n)
	for i := range rows {
		x := rng.Float64() * 1000
		rows[i] = []interface{}{x, 2*x + rng.NormFloat64()}
	}
	return rows
}

func TestAppendValidation(t *testing.T) {
	eng := newStreamEngine(t, 2000)

	if _, err := eng.Append("nope", streamRows(1, 1)); err == nil {
		t.Fatal("Append to unknown table should fail")
	}

	// Bad rows are rejected individually with their input positions; good
	// rows still land.
	rows := [][]interface{}{
		{1.0, 2.0},       // ok
		{"bad", 2.0},     // type mismatch
		{1.0},            // arity
		{3.0, 4.0},       // ok
		{1.0, 2.0, 3.0},  // arity
		{5.0, "not-a-y"}, // type mismatch
		{6.0, int64(12)}, // ok: int64 into FLOAT64
	}
	res, err := eng.Append("stream", rows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 3 || res.Rejected != 4 {
		t.Fatalf("Appended=%d Rejected=%d, want 3/4", res.Appended, res.Rejected)
	}
	if res.NumRows != 2003 {
		t.Fatalf("NumRows = %d, want 2003", res.NumRows)
	}
	wantBad := []int{1, 2, 4, 5}
	if len(res.Errors) != len(wantBad) {
		t.Fatalf("Errors = %v", res.Errors)
	}
	for i, re := range res.Errors {
		if re.Row != wantBad[i] || re.Err == "" {
			t.Fatalf("Errors[%d] = %+v, want row %d", i, re, wantBad[i])
		}
	}
}

func TestAppendVisibleToExactPath(t *testing.T) {
	eng := newStreamEngine(t, 1000)
	// z is untrained, so COUNT(z)-style queries go down the exact path.
	count := func() float64 {
		res, err := eng.Query("SELECT COUNT(*) FROM stream WHERE y BETWEEN -10000 AND 10000")
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != "exact" {
			t.Fatalf("source = %q, want exact", res.Source)
		}
		return res.Aggregates[0].Value
	}
	if got := count(); got != 1000 {
		t.Fatalf("pre-append exact COUNT = %g, want 1000", got)
	}
	if _, err := eng.Append("stream", streamRows(500, 2)); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 1500 {
		t.Fatalf("post-append exact COUNT = %g, want 1500", got)
	}
}

func TestModelStalenessLedger(t *testing.T) {
	eng := newStreamEngine(t, 4000)
	sts := eng.ModelStaleness()
	if len(sts) != 1 {
		t.Fatalf("ModelStaleness len = %d, want 1", len(sts))
	}
	if sts[0].BaseRows != 4000 || sts[0].Score != 0 {
		t.Fatalf("fresh staleness: %+v", sts[0])
	}
	if _, err := eng.Append("stream", streamRows(1000, 3)); err != nil {
		t.Fatal(err)
	}
	s := eng.ModelStaleness()[0]
	if s.IngestedRows != 1000 {
		t.Fatalf("IngestedRows = %d, want 1000", s.IngestedRows)
	}
	if s.FracIngested != 0.25 {
		t.Fatalf("FracIngested = %g, want 0.25", s.FracIngested)
	}
	if s.ReservoirReplaced == 0 || s.ReservoirSize != 1000 {
		t.Fatalf("reservoir not maintained: %+v", s)
	}
	if s.Score < 0.25 {
		t.Fatalf("Score = %g, want >= 0.25", s.Score)
	}
}

// The acceptance-criteria round trip: ingest past the staleness threshold,
// the background refresher retrains, the plan cache wipes on the catalog
// generation bump, and a repeated query reflects the new data — all while
// the read path keeps answering.
func TestIngestRefreshQueryRoundTrip(t *testing.T) {
	const base = 4000
	eng := newStreamEngine(t, base)
	defer eng.StopRefresher()

	countSQL := "SELECT COUNT(*) FROM stream WHERE x BETWEEN 0 AND 1000"
	query := func() float64 {
		res, err := eng.Query(countSQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != "model" {
			t.Fatalf("source = %q, want model", res.Source)
		}
		return res.Aggregates[0].Value
	}
	before := query()
	if relErr(before, base) > 0.15 {
		t.Fatalf("pre-ingest model COUNT = %g, want ~%d", before, base)
	}
	wipesBefore := eng.PlanCacheStats().GenerationWipes

	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval:  5 * time.Millisecond,
		Threshold: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartRefresher(nil); err == nil {
		t.Fatal("second StartRefresher should fail")
	}

	// Ingest a full table's worth: staleness 1.0 >= threshold 0.5.
	if _, err := eng.Append("stream", streamRows(base, 9)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for eng.RefreshStats().Refreshes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background refresher never retrained; staleness: %+v", eng.ModelStaleness())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The retrained model must see the doubled table.
	after := query()
	if relErr(after, 2*base) > 0.15 {
		t.Fatalf("post-refresh model COUNT = %g, want ~%d", after, 2*base)
	}

	// The refresh invalidated the cached plan via the generation bump.
	if wipes := eng.PlanCacheStats().GenerationWipes; wipes <= wipesBefore {
		t.Fatalf("GenerationWipes = %d, want > %d after background retrain", wipes, wipesBefore)
	}

	// The ledger reset and recorded the refresh.
	s := eng.ModelStaleness()[0]
	if s.Refreshes == 0 {
		t.Fatalf("ledger Refreshes = 0 after refresh: %+v", s)
	}
	if s.BaseRows != 2*base {
		t.Fatalf("ledger BaseRows = %d after refresh, want %d", s.BaseRows, 2*base)
	}
	if s.LastError != "" {
		t.Fatalf("ledger LastError = %q", s.LastError)
	}

	st := eng.RefreshStats()
	if !st.Running || st.TrackedModels != 1 || st.TotalRetrain == 0 {
		t.Fatalf("RefreshStats = %+v", st)
	}
	eng.StopRefresher()
	if st := eng.RefreshStats(); st.Running {
		t.Fatal("RefreshStats.Running after StopRefresher")
	} else if st.Refreshes == 0 {
		t.Fatal("refresh counters lost by StopRefresher")
	}
}

// Satellite: re-registering a table under an existing name must invalidate
// cached plans (generation bump) and force-stale its models, instead of
// silently serving models bound to the data that was replaced.
func TestRegisterTableReplacementInvalidates(t *testing.T) {
	eng := newStreamEngine(t, 2000)
	sql := "SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900"
	if _, err := eng.Query(sql); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(sql); err != nil { // cached now
		t.Fatal(err)
	}
	st0 := eng.PlanCacheStats()
	if st0.Hits == 0 {
		t.Fatalf("expected a plan-cache hit before re-registration: %+v", st0)
	}

	// Replace the table wholesale.
	if err := eng.RegisterTable(streamTable(3000, 99)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(sql); err != nil {
		t.Fatal(err)
	}
	st1 := eng.PlanCacheStats()
	if st1.GenerationWipes != st0.GenerationWipes+1 {
		t.Fatalf("GenerationWipes = %d, want %d: re-registration must invalidate cached plans",
			st1.GenerationWipes, st0.GenerationWipes+1)
	}
	if st1.Misses != st0.Misses+1 {
		t.Fatalf("Misses = %d, want %d (replan after re-registration)", st1.Misses, st0.Misses+1)
	}

	// And the model over the replaced data is marked maximally stale.
	if s := eng.ModelStaleness()[0]; s.Score != 1 {
		t.Fatalf("staleness Score = %g after re-registration, want 1", s.Score)
	}

	// Registering a brand-new name must NOT invalidate anything.
	other := streamTable(100, 5)
	other.Name = "other"
	if err := eng.RegisterTable(other); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(sql); err != nil {
		t.Fatal(err)
	}
	if st2 := eng.PlanCacheStats(); st2.GenerationWipes != st1.GenerationWipes {
		t.Fatalf("registering a new name bumped GenerationWipes: %+v", st2)
	}
}

// The -race stress leg: concurrent Append, QueryBatch and background
// refresh must not trip the race detector or corrupt answers.
func TestConcurrentAppendQueryRefresh(t *testing.T) {
	eng := newStreamEngine(t, 3000)
	defer eng.StopRefresher()
	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval:  2 * time.Millisecond,
		Threshold: 0.05,
		Workers:   2,
	}); err != nil {
		t.Fatal(err)
	}

	sqls := []string{
		"SELECT COUNT(*) FROM stream WHERE x BETWEEN 0 AND 1000",
		"SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900",
		"SELECT SUM(y) FROM stream WHERE x BETWEEN 200 AND 800",
		"SELECT COUNT(*) FROM stream WHERE x BETWEEN 0 AND 1000", // duplicate shape
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(seed int64) { // appender
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := eng.Append("stream", streamRows(50, seed+int64(i))); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(g) * 1000)
		go func() { // querier
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, br := range eng.QueryBatch(sqls) {
					if br.Err != nil {
						errCh <- fmt.Errorf("%s: %w", br.SQL, br.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The table must end exactly 4*20*50 rows larger — appends are atomic.
	if got := eng.Table("stream").NumRows(); got != 3000+4*20*50 {
		t.Fatalf("NumRows = %d, want %d", got, 3000+4*20*50)
	}
}

// The acceptance-criteria benchmark pair: query latency with the engine
// idle vs. during continuous background refresh. Refresh swaps models
// atomically, so the read path should see no blocking — only CPU sharing.
func BenchmarkQueryIdle(b *testing.B) {
	eng := newStreamEngine(b, 20000)
	sql := "SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryDuringRefresh(b *testing.B) {
	eng := newStreamEngine(b, 20000)
	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval:  time.Millisecond,
		Threshold: 0.01,
	}); err != nil {
		b.Fatal(err)
	}
	defer eng.StopRefresher()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keep the model permanently stale so refresh never idles
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Append("stream", streamRows(500, i)); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	sql := "SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// Drop-then-re-register must behave like replacement: the models trained
// over the old data are force-staled and cached plans invalidated, even
// though the name was briefly unregistered.
func TestDropThenReRegisterInvalidates(t *testing.T) {
	eng := newStreamEngine(t, 2000)
	sql := "SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900"
	if _, err := eng.Query(sql); err != nil {
		t.Fatal(err)
	}
	st0 := eng.PlanCacheStats()

	eng.DropTable("stream")
	if err := eng.RegisterTable(streamTable(2500, 42)); err != nil {
		t.Fatal(err)
	}
	if s := eng.ModelStaleness()[0]; s.Score != 1 {
		t.Fatalf("staleness Score = %g after drop+re-register, want 1", s.Score)
	}
	if _, err := eng.Query(sql); err != nil {
		t.Fatal(err)
	}
	if st1 := eng.PlanCacheStats(); st1.GenerationWipes != st0.GenerationWipes+1 {
		t.Fatalf("GenerationWipes = %d, want %d: drop+re-register must invalidate cached plans",
			st1.GenerationWipes, st0.GenerationWipes+1)
	}
	// And a running refresher now rebuilds the model from the new table.
	if err := eng.StartRefresher(&dbest.RefreshOptions{Interval: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopRefresher()
	deadline := time.Now().Add(30 * time.Second)
	for eng.RefreshStats().Refreshes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("refresher never rebuilt the force-staled model: %+v", eng.ModelStaleness())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s := eng.ModelStaleness()[0]; s.BaseRows != 2500 {
		t.Fatalf("BaseRows = %d after rebuild, want 2500", s.BaseRows)
	}
}

func TestEngineAppendTable(t *testing.T) {
	eng := newStreamEngine(t, 1000)
	n, err := eng.AppendTable("stream", streamTable(250, 7))
	if err != nil {
		t.Fatal(err)
	}
	if n != 250 {
		t.Fatalf("AppendTable = %d, want 250", n)
	}
	if got := eng.Table("stream").NumRows(); got != 1250 {
		t.Fatalf("NumRows = %d, want 1250", got)
	}
	if s := eng.ModelStaleness()[0]; s.IngestedRows != 250 {
		t.Fatalf("ledger IngestedRows = %d, want 250", s.IngestedRows)
	}
	if _, err := eng.AppendTable("nope", streamTable(1, 1)); err == nil {
		t.Fatal("AppendTable to unknown table should fail")
	}
	bad := dbest.NewTable("stream")
	bad.AddFloatColumn("x", []float64{1})
	if _, err := eng.AppendTable("stream", bad); err == nil {
		t.Fatal("AppendTable with mismatched schema should fail")
	}
}
