package dbest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapTestTable builds a deterministic (x, y) table with y = 2x exactly and
// x uniform over [0, 1000). The exact linear relation makes torn catalog
// views detectable: for any range [a, b], SUM(y)/COUNT(*) must come out
// near a+b (the mean of y over the range) no matter which model generation
// answered — but only if both aggregates bound the SAME generation. Models
// are retrained with alternating Scale (1 vs 3), which multiplies both
// aggregates by the same factor; a query whose COUNT bound one generation
// and whose SUM bound the other is off by 3x in the ratio.
func snapTestTable(name string, rows int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = 2 * xs[i]
	}
	tb := NewTable(name)
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

// checkRatio asserts one result's SUM/COUNT ratio is consistent with a
// single-generation catalog view of the y = 2x table.
func checkRatio(res *Result, lo, hi float64) error {
	if len(res.Aggregates) != 2 {
		return fmt.Errorf("got %d aggregates, want 2", len(res.Aggregates))
	}
	count, sum := res.Aggregates[0].Value, res.Aggregates[1].Value
	if count <= 0 {
		return fmt.Errorf("COUNT = %g, want > 0", count)
	}
	want := lo + hi // mean of y = 2x over [lo, hi]
	ratio := sum / count
	if math.Abs(ratio-want) > 0.5*want {
		return fmt.Errorf("SUM/COUNT = %.1f, want ~%.1f: aggregates bound different catalog generations", ratio, want)
	}
	return nil
}

// TestPrepareTrainInterleaveConsistency is the regression test for the
// prepare-time generation race: planning used to read the catalog once per
// aggregate lookup, so a Train committing between the COUNT lookup and the
// SUM lookup of one query could bind the two aggregates to different model
// generations. Planning now resolves every lookup against one immutable
// snapshot captured at the top of the call, so a query's answer is always a
// single-generation view no matter how trains interleave.
func TestPrepareTrainInterleaveConsistency(t *testing.T) {
	eng := New(nil)
	if err := eng.RegisterTable(snapTestTable("inter", 4000, 1)); err != nil {
		t.Fatal(err)
	}
	train := func(scale float64) error {
		_, err := eng.CreateModel(context.Background(), &ModelSpec{
			Table: "inter", XCols: []string{"x"}, YCol: "y", SampleSize: 800, Seed: 1,
			Scale: scale,
		})
		return err
	}
	if err := train(1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	trainErr := make(chan error, 1)
	var trains atomic.Int64
	go func() {
		defer close(trainErr)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			scale := 1.0
			if i%2 == 1 {
				scale = 3.0
			}
			if err := train(scale); err != nil {
				trainErr <- err
				return
			}
			trains.Add(1)
		}
	}()

	const sql = "SELECT COUNT(*), SUM(y) FROM inter WHERE x BETWEEN 200 AND 800"
	deadline := time.Now().Add(10 * time.Second)
	queries := 0
	for (trains.Load() < 10 || queries < 50) && time.Now().Before(deadline) {
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("query %d: %v", queries, err)
		}
		if err := checkRatio(res, 200, 800); err != nil {
			t.Fatalf("query %d: %v", queries, err)
		}
		queries++
	}
	close(stop)
	if err := <-trainErr; err != nil {
		t.Fatalf("trainer: %v", err)
	}
	if trains.Load() < 2 {
		t.Fatalf("only %d retrains interleaved; test needs concurrent trains to exercise the race", trains.Load())
	}
}

// TestConcurrentSnapshotStress races every snapshot publisher and consumer
// at once — appenders, a retrainer alternating model scale, Query and
// QueryBatch readers, and the background staleness refresher — and asserts
// every individual answer reflects a single catalog generation (the y = 2x
// ratio invariant). Run under -race this doubles as the memory-model check
// on the atomic snapshot plumbing.
func TestConcurrentSnapshotStress(t *testing.T) {
	eng := New(nil)
	if err := eng.RegisterTable(snapTestTable("stress", 4000, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &ModelSpec{
		Table: "stress", XCols: []string{"x"}, YCol: "y", SampleSize: 800, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartRefresher(&RefreshOptions{
		Interval:  2 * time.Millisecond,
		Threshold: 0.05,
		Workers:   2,
	}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopRefresher()

	stop := make(chan struct{})
	errCh := make(chan error, 64)
	var wg sync.WaitGroup

	// Appenders: keep publishing new table snapshots (y = 2x preserved).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				rows := make([][]interface{}, 40)
				for j := range rows {
					x := rng.Float64() * 1000
					rows[j] = []interface{}{x, 2 * x}
				}
				if _, err := eng.Append("stress", rows); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(g) + 10)
	}
	// Retrainer: alternates Scale so torn generation views are detectable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			scale := 1.0
			if i%2 == 1 {
				scale = 3.0
			}
			if _, err := eng.CreateModel(context.Background(), &ModelSpec{
				Table: "stress", XCols: []string{"x"}, YCol: "y", SampleSize: 800, Seed: 1,
				Scale: scale,
			}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Readers: single queries and batches, each answer checked for
	// single-generation consistency.
	sqls := []string{
		"SELECT COUNT(*), SUM(y) FROM stress WHERE x BETWEEN 100 AND 900",
		"SELECT COUNT(*), SUM(y) FROM stress WHERE x BETWEEN 200 AND 800",
		"SELECT COUNT(*), SUM(y) FROM stress WHERE x BETWEEN 100 AND 900", // duplicate shape
	}
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() { // Query reader
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.Query(sqls[0])
				if err != nil {
					errCh <- err
					return
				}
				if err := checkRatio(res, 100, 900); err != nil {
					errCh <- err
					return
				}
			}
		}()
		go func() { // QueryBatch reader
			defer wg.Done()
			bounds := [][2]float64{{100, 900}, {200, 800}, {100, 900}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, br := range eng.QueryBatch(sqls) {
					if br.Err != nil {
						errCh <- br.Err
						return
					}
					if err := checkRatio(br.Result, bounds[i][0], bounds[i][1]); err != nil {
						errCh <- fmt.Errorf("batch[%d]: %w", i, err)
					}
				}
			}
		}()
	}

	// Let writers finish, then stop the readers.
	writerDone := make(chan struct{})
	go func() {
		time.Sleep(500 * time.Millisecond)
		close(writerDone)
	}()
	<-writerDone
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSnapshotsAreGCable asserts that superseded engine snapshots really
// are released: once new publications replace a snapshot and no query
// holds it, nothing in the engine pins it and the collector reclaims it.
// A leak here would make the epoch scheme accumulate one table+catalog
// view per mutation forever.
func TestSnapshotsAreGCable(t *testing.T) {
	eng := New(nil)
	if err := eng.RegisterTable(snapTestTable("gc", 500, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &ModelSpec{
		Table: "gc", XCols: []string{"x"}, YCol: "y", SampleSize: 200, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Touch the read path so the plan cache memoizes against the current
	// snapshot — cached state must pin models, never whole snapshots.
	if _, err := eng.Query("SELECT COUNT(*), SUM(y) FROM gc WHERE x BETWEEN 100 AND 900"); err != nil {
		t.Fatal(err)
	}

	var finalized atomic.Bool
	old := eng.snap.Load()
	runtime.SetFinalizer(old, func(*engineSnap) { finalized.Store(true) })
	old = nil
	_ = old

	// Publish replacements so the finalizer target is superseded.
	for i := 0; i < 3; i++ {
		x := float64(i)
		if _, err := eng.Append("gc", [][]interface{}{{x, 2 * x}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200 && !finalized.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !finalized.Load() {
		t.Fatal("superseded engine snapshot was never garbage-collected: something retains old snapshots")
	}
}
