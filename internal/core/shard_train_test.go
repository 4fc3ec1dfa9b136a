package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"dbest/internal/datagen"
	"dbest/internal/exact"
	"dbest/internal/shard"
)

func TestTrainShardedEnsemble(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 5})
	sets, err := TrainShardedContext(context.Background(), tb, "ss_sold_date_sk", "ss_sales_price", 4,
		&TrainConfig{SampleSize: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 4 {
		t.Fatalf("got %d shards, want 4", len(sets))
	}
	var totalN float64
	for i, ms := range sets {
		if ms.Shard != i || ms.Shards != 4 || ms.Uni == nil {
			t.Fatalf("shard %d metadata = %+v", i, ms)
		}
		totalN += ms.N
		wantKey := ms.BaseKey() + "@s" + string(rune('0'+i)) + "/4"
		if ms.Key() != wantKey {
			t.Fatalf("shard %d key = %q, want %q", i, ms.Key(), wantKey)
		}
		if !strings.HasPrefix(ms.Key(), "store_sales|ss_sold_date_sk|ss_sales_price|") {
			t.Fatalf("key = %q", ms.Key())
		}
		if i > 0 && sets[i-1].ShardHi != ms.ShardLo {
			t.Fatalf("shard bounds not contiguous: %v vs %v", sets[i-1].ShardHi, ms.ShardLo)
		}
	}
	if int(totalN+0.5) != tb.NumRows() {
		t.Fatalf("shard N sums to %v, want %d", totalN, tb.NumRows())
	}
}

func TestTrainShardedRejectsGroupBy(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 2000, Seed: 5})
	if _, err := TrainShardedContext(context.Background(), tb, "ss_sold_date_sk", "ss_sales_price", 4,
		&TrainConfig{GroupBy: "ss_store_sk"}); err == nil {
		t.Fatal("want error for GROUP BY sharded training")
	}
}

// TestShardedPartialsMergeToUnshardedAnswer: merging the per-shard partials
// over a range spanning all shards must agree with the exact answer about
// as well as an unsharded model does.
func TestShardedPartialsMergeToUnshardedAnswer(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 30000, Seed: 9})
	sets, err := TrainShardedContext(context.Background(), tb, "ss_sold_date_sk", "ss_sales_price", 4,
		&TrainConfig{SampleSize: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lb, ub := 200.0, 1400.0
	ps := make([]shard.Partial, 0, len(sets))
	for _, ms := range sets {
		p, _ := ms.Uni.Partial(lb, ub, false, true, true)
		ps = append(ps, p)
	}
	exactRes := func(af exact.AggFunc) float64 {
		r, err := exact.Query(tb, exact.Request{AF: af, Y: "ss_sales_price",
			Predicates: []exact.Range{{Column: "ss_sold_date_sk", Lb: lb, Ub: ub}}})
		if err != nil {
			t.Fatal(err)
		}
		return r.Value
	}
	check := func(name string, got, want, tol float64) {
		t.Helper()
		re := math.Abs(got-want) / math.Abs(want)
		if re > tol {
			t.Fatalf("%s = %v, want %v (rel err %.3f)", name, got, want, re)
		}
	}
	check("COUNT", MergeCountForTest(ps), exactRes(exact.Count), 0.05)
	check("SUM", shard.MergeSum(ps), exactRes(exact.Sum), 0.06)
	avg, ok := shard.MergeAvg(ps)
	if !ok {
		t.Fatal("avg merge reported no support")
	}
	check("AVG", avg, exactRes(exact.Avg), 0.05)
	// VARIANCE/STDDEV are the regression-based Eq. 8 forms (variance of the
	// conditional mean, not of y), so the right baseline is the unsharded
	// model's answer, not the exact engine's.
	uni, err := Train(tb, []string{"ss_sold_date_sk"}, "ss_sales_price",
		&TrainConfig{SampleSize: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wantSD, err := uni.Uni.Aggregate(exact.StdDev, lb, ub, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sd, ok := shard.MergeStdDev(ps)
	if !ok {
		t.Fatal("stddev merge reported no support")
	}
	check("STDDEV", sd, wantSD, 0.25)
}

// MergeCountForTest keeps the test honest about which package owns the
// merge math.
func MergeCountForTest(ps []shard.Partial) float64 { return shard.MergeCount(ps) }

func TestTrainShardModelRetrainsOneShard(t *testing.T) {
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 10000, Seed: 3})
	sets, err := TrainShardedContext(context.Background(), tb, "ss_sold_date_sk", "ss_sales_price", 4,
		&TrainConfig{SampleSize: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms := sets[2]
	re, err := TrainShardModelContext(t.Context(), tb, "ss_sold_date_sk", "ss_sales_price",
		ms.Shard, ms.Shards, ms.ShardLo, ms.ShardHi, &TrainConfig{SampleSize: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if re.Key() != ms.Key() {
		t.Fatalf("retrained key = %q, want %q", re.Key(), ms.Key())
	}
	// Same data, same seed, same filter: the retrain is a deterministic
	// reproduction of the original shard (same logical row count).
	if re.N != ms.N {
		t.Fatalf("retrained N = %v, want %v", re.N, ms.N)
	}
	if _, err := TrainShardModelContext(t.Context(), tb, "ss_sold_date_sk", "ss_sales_price",
		9, 4, 0, 1, nil); err == nil {
		t.Fatal("want error for out-of-range shard index")
	}
}
