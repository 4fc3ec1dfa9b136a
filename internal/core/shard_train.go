package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dbest/internal/parallel"
	"dbest/internal/sample"
	"dbest/internal/shard"
	"dbest/internal/table"
)

// ShardSeed derives the deterministic sampling/training seed for one shard
// of a sharded ensemble. The ingest ledger's maintained reservoir mirrors
// must derive the same seed to continue a shard's sample stream, so the
// derivation lives here rather than being duplicated.
func ShardSeed(seed int64, shardIdx int) int64 { return seed + int64(shardIdx)*7919 }

// TrainShardedContext partitions tb's rows into up to shards contiguous
// range shards on xcol (quantile cut points, so shards hold near-equal row
// counts) and trains one independent model pair per shard over a per-shard
// reservoir sample. Heavy value ties can collapse cut points, so the
// returned ensemble may be smaller than requested; with a single resulting
// shard the set is a plain unsharded model. Sharding composes with neither
// GROUP BY nor multivariate predicates. A canceled ctx aborts at the next
// per-shard fit boundary.
func TrainShardedContext(ctx context.Context, tb *table.Table, xcol, ycol string, shards int, cfg *TrainConfig) ([]*ModelSet, error) {
	c := cfg.withDefaults()
	if c.GroupBy != "" {
		return nil, errors.New("core: sharded training does not support GROUP BY")
	}
	if tb.NumRows() == 0 {
		return nil, fmt.Errorf("core: table %s is empty", tb.Name)
	}
	if !tb.HasColumn(ycol) {
		return nil, fmt.Errorf("core: table %s has no column %q", tb.Name, ycol)
	}
	xs, err := tb.Floats(xcol)
	if err != nil {
		return nil, err
	}
	split, err := shard.Plan(xcol, xs, shards)
	if err != nil {
		return nil, err
	}
	parts := split.Partition(xs)
	sets := make([]*ModelSet, split.K())
	trainErr := parallel.FirstError(split.K(), c.Workers, func(i int) error {
		ms, err := trainShardFromRows(ctx, tb, xcol, ycol, parts[i], i, split.K(), split.Lo(i), split.Hi(i), c)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sets[i] = ms
		return nil
	})
	if trainErr != nil {
		return nil, trainErr
	}
	return sets, nil
}

// TrainShardModelContext retrains a single member of a sharded ensemble
// from the table's current rows in the shard's range — the per-shard
// refresh primitive: only the dirty shard pays a retrain, the rest of the
// ensemble is untouched. shardIdx/shards/lo/hi must describe the same
// split the ensemble was trained under (edge shards are open-ended).
func TrainShardModelContext(ctx context.Context, tb *table.Table, xcol, ycol string, shardIdx, shards int, lo, hi float64, cfg *TrainConfig) (*ModelSet, error) {
	c := cfg.withDefaults()
	if shardIdx < 0 || shards < 1 || shardIdx >= shards {
		return nil, fmt.Errorf("core: shard %d of %d is out of range", shardIdx, shards)
	}
	xs, err := tb.Floats(xcol)
	if err != nil {
		return nil, err
	}
	var rows []int
	for i, x := range xs {
		if shard.Owns(shardIdx, shards, lo, hi, x) {
			rows = append(rows, i)
		}
	}
	ms, err := trainShardFromRows(ctx, tb, xcol, ycol, rows, shardIdx, shards, lo, hi, c)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
	}
	return ms, nil
}

// trainShardFromRows trains one shard's model pair over a reservoir sample
// of the shard's rows. rows must be in table order: the reservoir is
// offered local stream positions (so the ingest ledger can mirror the
// sampler with the same capacity and ShardSeed) and admissions map back to
// global row indices.
func trainShardFromRows(ctx context.Context, tb *table.Table, xcol, ycol string, rows []int, shardIdx, shards int, lo, hi float64, c TrainConfig) (*ModelSet, error) {
	if len(rows) == 0 {
		return nil, errors.New("core: shard has no rows; reduce the shard count")
	}
	cfg := c
	cfg.Seed = ShardSeed(c.Seed, shardIdx)
	// Shard training fans out across workers; keep each member's grid
	// build sequential to avoid nested oversubscription.
	cfg.Workers = 1

	t0 := time.Now()
	res := sample.NewReservoir(cfg.SampleSize, cfg.Seed)
	for j := range rows {
		res.Offer(j)
	}
	locals := res.Indices()
	idx := make([]int, len(locals))
	for m, lp := range locals {
		idx[m] = rows[lp]
	}
	xsS, ysS, err := gatherPair(tb, xcol, ycol, idx)
	if err != nil {
		return nil, err
	}
	ms := &ModelSet{
		Table: tb.Name, XCols: []string{xcol}, YCol: ycol,
		N:     float64(len(rows)) * cfg.Scale,
		Shard: shardIdx, Shards: shards, ShardLo: lo, ShardHi: hi,
	}
	ms.Stats.SampleTime = time.Since(t0)
	ms.Stats.SampleRows = len(idx)

	t1 := time.Now()
	m, st, err := trainPair(ctx, xcol, ycol, xsS, ysS, ms.N, cfg)
	if err != nil {
		return nil, err
	}
	ms.Stats.TrainTime = time.Since(t1)
	ms.Stats.stages = st
	ms.Uni = m
	ms.Stats.ModelBytes = ms.SizeBytes()
	return ms, nil
}

// PhysicalRows reports the physical base-row count the set was trained
// over (N is the logical count after Scale). It is what the ingest ledger
// tracks staleness against.
func (ms *ModelSet) PhysicalRows(scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	return int(ms.N/scale + 0.5)
}
