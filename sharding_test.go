package dbest_test

import (
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/exact"
)

// newShardedEngine trains a K-shard ensemble on [ss_sold_date_sk →
// ss_sales_price] over a fresh StoreSales table.
func newShardedEngine(t *testing.T, rows, k int) (*dbest.Engine, *dbest.Table) {
	t.Helper()
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: rows, Seed: 1})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	info, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		Shards: k, SampleSize: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != k {
		t.Fatalf("trained %d shards, want %d", info.Shards, k)
	}
	return eng, tb
}

func TestShardedQueryMatchesExact(t *testing.T) {
	eng, tb := newShardedEngine(t, 40000, 8)
	for _, q := range []struct {
		af     exact.AggFunc
		sql    string
		lb, ub float64
		tol    float64
	}{
		{exact.Avg, "AVG(ss_sales_price)", 200, 600, 0.05},
		{exact.Sum, "SUM(ss_sales_price)", 200, 600, 0.08},
		{exact.Count, "COUNT(*)", 200, 600, 0.08},
		{exact.Avg, "AVG(ss_sales_price)", 0, 1823, 0.05}, // full domain: all shards merge
	} {
		res, err := eng.Query("SELECT " + q.sql + " FROM store_sales WHERE ss_sold_date_sk BETWEEN " +
			fmtF(q.lb) + " AND " + fmtF(q.ub))
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if res.Source != "model" {
			t.Fatalf("%s: source = %q, want model", q.sql, res.Source)
		}
		want := exactAnswer(t, tb, q.af, "ss_sales_price", "ss_sold_date_sk", q.lb, q.ub)
		if re := relErr(res.Aggregates[0].Value, want); re > q.tol {
			t.Fatalf("%s over [%g,%g]: got %v, want %v (rel err %.3f)",
				q.sql, q.lb, q.ub, res.Aggregates[0].Value, want, re)
		}
	}
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestNarrowQueryPrunesShards is the acceptance criterion: a range query
// covering ≤ 1/K of the domain over a K=16 ensemble evaluates only the
// overlapping shards, asserted through both the operator tree and the
// engine's shard counters.
func TestNarrowQueryPrunesShards(t *testing.T) {
	eng, _ := newShardedEngine(t, 40000, 16)
	before := eng.ShardStats()
	// The day domain spans 0..1823; 40 days is well under 1/16 of it.
	sql := `SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 900 AND 940`
	plan, err := eng.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Tree, "ShardMerge") {
		t.Fatalf("tree missing ShardMerge:\n%s", plan.Tree)
	}
	if !strings.Contains(plan.Tree, "/16") {
		t.Fatalf("tree missing shard count:\n%s", plan.Tree)
	}
	if len(plan.ModelKeys) != 1 || !strings.Contains(plan.ModelKeys[0], "@16-shards") {
		t.Fatalf("model keys = %v", plan.ModelKeys)
	}
	if _, err := eng.Query(sql); err != nil {
		t.Fatal(err)
	}
	after := eng.ShardStats()
	evaluated := after.Evaluated - before.Evaluated
	pruned := after.Pruned - before.Pruned
	// A 40-day window can straddle at most one quantile cut.
	if evaluated > 2 {
		t.Fatalf("narrow query evaluated %d shards, want <= 2", evaluated)
	}
	if evaluated+pruned != 16 {
		t.Fatalf("evaluated %d + pruned %d != 16 shards", evaluated, pruned)
	}
}

func TestShardedPercentileMerges(t *testing.T) {
	eng, tb := newShardedEngine(t, 40000, 8)
	res, err := eng.Query(`SELECT PERCENTILE(ss_sold_date_sk, 0.5) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 100 AND 1500`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exact.Query(tb, exact.Request{AF: exact.Percentile, Y: "ss_sold_date_sk", P: 0.5,
		Predicates: []exact.Range{{Column: "ss_sold_date_sk", Lb: 100, Ub: 1500}}})
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(res.Aggregates[0].Value, r.Value); re > 0.05 {
		t.Fatalf("merged median = %v, exact = %v (rel err %.3f)", res.Aggregates[0].Value, r.Value, re)
	}
}

func TestShardedEmptyRegionErrors(t *testing.T) {
	eng, _ := newShardedEngine(t, 20000, 4)
	// AVG over a region with no density support errors like the unsharded path.
	_, err := eng.Query(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 900000 AND 900001`)
	if err == nil || !strings.Contains(err.Error(), "empty region") {
		t.Fatalf("err = %v, want empty-region error", err)
	}
	// COUNT answers ~0 instead of erroring, like SQL over empty sets.
	res, err := eng.Query(`SELECT COUNT(*) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 900000 AND 900001`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregates[0].Value > 1 {
		t.Fatalf("COUNT over empty region = %v, want ~0", res.Aggregates[0].Value)
	}
}

// TestShardedSaveLoadRoundTrip is the satellite fix's happy path: a saved
// sharded catalog reloads as a complete ensemble and keeps answering.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	eng, tb := newShardedEngine(t, 20000, 4)
	path := filepath.Join(t.TempDir(), "models.gob")
	if err := eng.SaveModels(path); err != nil {
		t.Fatal(err)
	}
	fresh := dbest.New(nil)
	if err := fresh.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	if got := len(fresh.ModelKeys()); got != 4 {
		t.Fatalf("loaded %d model sets, want 4", got)
	}
	// No base table registered: the answer must come from the models alone.
	res, err := fresh.Query(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 200 AND 600`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q, want model", res.Source)
	}
	want := exactAnswer(t, tb, exact.Avg, "ss_sales_price", "ss_sold_date_sk", 200, 600)
	if re := relErr(res.Aggregates[0].Value, want); re > 0.05 {
		t.Fatalf("loaded ensemble AVG = %v, want %v (rel err %.3f)", res.Aggregates[0].Value, want, re)
	}
}

// TestTrainShardedReplacesOldEnsemble: retraining with a different K must
// not leave the old ensemble (or a plain model for the pair) behind.
func TestTrainShardedReplacesOldEnsemble(t *testing.T) {
	eng, _ := newShardedEngine(t, 20000, 4)
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 1000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		Shards: 8, SampleSize: 1000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	keys := eng.ModelKeys()
	if len(keys) != 8 {
		t.Fatalf("catalog keys = %v, want exactly the 8 new shard keys", keys)
	}
	for _, k := range keys {
		if !strings.Contains(k, "/8") {
			t.Fatalf("stale key %q survived the re-shard", k)
		}
	}
	if p := eng.TablePartitioning("store_sales"); p == nil || p.Shards() != 8 {
		t.Fatalf("table partition = %+v, want 8 shards on ss_sold_date_sk", p)
	}
}

// TestShardedRefreshRetrainsOnlyDirtyShard: appends concentrated in one
// shard's range must background-retrain that shard alone.
func TestShardedRefreshRetrainsOnlyDirtyShard(t *testing.T) {
	eng, _ := newShardedEngine(t, 8000, 4)
	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval: 10 * time.Millisecond, Threshold: 0.2, MinRows: 1,
	}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopRefresher()

	// Find the last shard's range start from the partition metadata and
	// flood it: every appended day lands in the final shard.
	part := eng.TablePartitioning("store_sales")
	if part == nil || part.Shards() != 4 {
		t.Fatalf("partition = %+v", part)
	}
	hi := part.Bounds[len(part.Bounds)-1]
	rows := make([][]interface{}, 800)
	for i := range rows {
		rows[i] = []interface{}{int64(hi) + 1, int64(3), 2.0, 10.0, 14.0, 12.0, 1.5, 3.0, "store"}
	}
	if _, err := eng.Append("store_sales", rows); err != nil {
		t.Fatal(err)
	}
	eng.RefreshNow()

	deadline := time.Now().Add(10 * time.Second)
	for {
		refreshed := 0
		for _, st := range eng.ModelStaleness() {
			if st.Shards != 4 {
				t.Fatalf("staleness entry missing shard metadata: %+v", st)
			}
			if st.Shard != 3 && st.Refreshes > 0 {
				t.Fatalf("clean shard %d was retrained: %+v", st.Shard, st)
			}
			if st.Shard == 3 && st.Refreshes > 0 && !st.Refreshing {
				refreshed++
			}
		}
		if refreshed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dirty shard never refreshed: %+v", eng.ModelStaleness())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
