package dbest_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dbest"
)

// TestConcurrentAppendSketchQueryRefresh is the sketch -race stress leg:
// appenders feeding novel values, sketch queriers, and the background
// refresher (kept busy by a regular model on the same table) all race.
// Sketch estimates must be monotone non-decreasing per querier (registers
// and counters only grow), every answer must come from a single sketch
// snapshot (a TOP listing never exceeds its K and never reports a zero
// count), absorbed-row counts must be monotone and land exactly on
// base+appended, and the refresher must never retrain a sketch.
func TestConcurrentAppendSketchQueryRefresh(t *testing.T) {
	eng := dbest.New(nil)
	base := shardStreamTable(8000, 7)
	channels := make([]string, 8000)
	for i := range channels {
		channels[i] = []string{"store", "web", "catalog"}[i%3]
	}
	base.AddStringColumn("c", channels)
	if err := eng.RegisterTable(base); err != nil {
		t.Fatal(err)
	}
	// A regular model keeps the refresher genuinely busy while sketches
	// absorb the same appends.
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "stream", XCols: []string{"x"}, YCol: "y", SampleSize: 1500, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("CREATE SKETCH dx ON stream(x) TYPE HLL"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("CREATE SKETCH tc ON stream(c) TYPE TOPK K 3"); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval:  2 * time.Millisecond,
		Threshold: 0.05,
		Workers:   2,
	}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopRefresher()

	const (
		writers = 4
		batches = 15
		perB    = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	for g := 0; g < writers; g++ {
		wg.Add(2)
		go func(g int) { // appender: every x value is brand new
			defer wg.Done()
			for i := 0; i < batches; i++ {
				rows := make([][]interface{}, perB)
				for j := range rows {
					x := float64(100000 + g*10000 + i*perB + j)
					rows[j] = []interface{}{x, 2 * x, []string{"store", "web", "catalog"}[j%3]}
				}
				if _, err := eng.Append("stream", rows); err != nil {
					fail(err)
					return
				}
			}
		}(g)
		go func() { // sketch querier: estimates must only grow
			defer wg.Done()
			prev := 0.0
			for i := 0; i < 25; i++ {
				res, err := eng.Query("SELECT COUNT(DISTINCT x) FROM stream")
				if err != nil {
					fail(err)
					return
				}
				if res.Source != "sketch" {
					t.Errorf("distinct source = %q, want sketch", res.Source)
					return
				}
				got := res.Aggregates[0].Value
				if got < prev-1e-6 {
					t.Errorf("distinct estimate went backwards: %v -> %v", prev, got)
					return
				}
				prev = got
				top, err := eng.Query("SELECT TOP 3(c) FROM stream")
				if err != nil {
					fail(err)
					return
				}
				entries := top.Aggregates[0].TopK
				if len(entries) != 3 {
					t.Errorf("TOP 3 returned %d entries", len(entries))
					return
				}
				for _, e := range entries {
					if e.Count == 0 {
						t.Errorf("TOP entry with zero count: %+v", entries)
						return
					}
				}
			}
		}()
	}
	// Absorbed-row poller: per-sketch counts never decrease.
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := map[string]uint64{}
		for i := 0; i < 50; i++ {
			for _, m := range eng.Models() {
				if m.Type == "" {
					continue
				}
				if m.AbsorbedRows < prev[m.Key] {
					t.Errorf("sketch %s absorbed count went backwards: %d -> %d",
						m.Key, prev[m.Key], m.AbsorbedRows)
					return
				}
				prev[m.Key] = m.AbsorbedRows
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Settle and check the final state: both sketches absorbed every
	// appended row, answers agree with exact scans of the final table,
	// and no sketch was ever retrained.
	eng.RefreshNow()
	const appended = writers * batches * perB
	res, err := eng.Query("SELECT COUNT(DISTINCT x) FROM stream")
	if err != nil {
		t.Fatal(err)
	}
	final := eng.Table("stream")
	wantDistinct, err := final.DistinctCount("x")
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Aggregates[0].Value, float64(wantDistinct)); re > 0.02 {
		t.Fatalf("final COUNT(DISTINCT x) = %v, want %d (rel err %v)", res.Aggregates[0].Value, wantDistinct, re)
	}
	for _, m := range eng.Models() {
		if m.Type == "" {
			continue
		}
		if m.AbsorbedRows != 8000+appended {
			t.Fatalf("sketch %s absorbed %d rows, want %d", m.Key, m.AbsorbedRows, 8000+appended)
		}
	}
	for _, st := range eng.ModelStaleness() {
		if strings.Contains(st.Key, "sketch:") && st.Refreshes != 0 {
			t.Fatalf("sketch %s was retrained %d times", st.Key, st.Refreshes)
		}
	}
	if st := eng.SketchStats(); st.Updates != 2*appended {
		t.Fatalf("sketch_updates = %d, want %d (both sketches absorb every row)", st.Updates, 2*appended)
	}
}
