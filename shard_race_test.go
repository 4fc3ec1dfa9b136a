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

// shardStreamTable builds a uniform (x, y) table over x in [0, 1000).
func shardStreamTable(rows int, seed int64) *dbest.Table {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = 2*xs[i] + 10*rng.NormFloat64()
	}
	tb := dbest.NewTable("stream")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

// hotRows builds append batches confined to [lo, lo+10): every row lands in
// one shard's range.
func hotRows(n int, lo float64, seed int64) [][]interface{} {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]interface{}, n)
	for i := range rows {
		x := lo + rng.Float64()*10
		rows[i] = []interface{}{x, 2*x + 10*rng.NormFloat64()}
	}
	return rows
}

// TestConcurrentShardedIngestQueryRefresh is the sharded -race stress leg:
// appenders flooding one shard's range, queriers running sharded
// QueryBatch, and the background refresher retraining the dirty shard all
// race. Afterwards the merged answers must agree with a freshly trained
// unsharded model over the same final data, only the flooded shard may
// have retrained, and a refresher kick with no new rows must not retrain
// anything again.
func TestConcurrentShardedIngestQueryRefresh(t *testing.T) {
	eng := dbest.New(nil)
	if err := eng.RegisterTable(shardStreamTable(8000, 1)); err != nil {
		t.Fatal(err)
	}
	spec := dbest.ModelSpec{Table: "stream", XCols: []string{"x"}, YCol: "y", Shards: 4, SampleSize: 1500, Seed: 1}
	if _, err := eng.CreateModel(context.Background(), &spec); err != nil {
		t.Fatal(err)
	}
	const threshold = 0.05
	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval:  2 * time.Millisecond,
		Threshold: threshold,
		Workers:   2,
	}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopRefresher()

	part := eng.TablePartitioning("stream")
	if part == nil || part.Shards() != 4 {
		t.Fatalf("partition = %+v", part)
	}
	hotShard := part.Shards() - 1
	hotLo := part.Bounds[hotShard] + 1 // strictly inside the last shard

	sqls := []string{
		"SELECT COUNT(*) FROM stream WHERE x BETWEEN 0 AND 1000",
		"SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900",
		"SELECT SUM(y) FROM stream WHERE x BETWEEN 400 AND 450", // narrow: prunes shards
		"SELECT AVG(y) FROM stream WHERE x BETWEEN 100 AND 900", // duplicate shape
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(seed int64) { // appender: every row lands in the hot shard
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := eng.Append("stream", hotRows(40, hotLo, seed+int64(i))); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(g) * 1000)
		go func() { // querier
			defer wg.Done()
			for i := 0; i < 15; i++ {
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

	// Quiesce: wait until no shard is refreshing and every score is below
	// the threshold (the dirty shard's last retrain absorbed all appends).
	eng.RefreshNow()
	deadline := time.Now().Add(20 * time.Second)
	for {
		settled := true
		for _, st := range eng.ModelStaleness() {
			if st.Refreshing || st.Score >= threshold {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refresher never settled: %+v", eng.ModelStaleness())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Only the flooded shard retrained.
	var hotRefreshes uint64
	for _, st := range eng.ModelStaleness() {
		if st.Shards != 4 {
			t.Fatalf("entry missing shard metadata: %+v", st)
		}
		if st.Shard == hotShard {
			hotRefreshes = st.Refreshes
			continue
		}
		if st.Refreshes > 0 {
			t.Fatalf("clean shard %d was retrained %d times: %+v", st.Shard, st.Refreshes, st)
		}
	}
	if hotRefreshes == 0 {
		t.Fatalf("hot shard never retrained: %+v", eng.ModelStaleness())
	}

	// No double-retrain: a kick with no new rows must not refresh anything.
	eng.RefreshNow()
	time.Sleep(100 * time.Millisecond)
	for _, st := range eng.ModelStaleness() {
		if st.Shard == hotShard && st.Refreshes != hotRefreshes {
			t.Fatalf("shard %d retrained without new rows: %d -> %d", st.Shard, hotRefreshes, st.Refreshes)
		}
	}

	// The merged answers agree with a freshly trained unsharded model over
	// the same final table snapshot.
	final := eng.Table("stream")
	ref := dbest.New(nil)
	if err := ref.RegisterTable(final.Clone()); err != nil {
		t.Fatal(err)
	}
	spec.Shards = 0
	if _, err := ref.CreateModel(context.Background(), &spec); err != nil {
		t.Fatal(err)
	}
	for _, sql := range sqls[:3] {
		got, err := eng.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(got.Aggregates[0].Value, want.Aggregates[0].Value); re > 0.15 {
			t.Fatalf("%s: sharded %v vs unsharded %v (rel err %.3f)",
				sql, got.Aggregates[0].Value, want.Aggregates[0].Value, re)
		}
	}
}
