package dbest

import (
	"context"
	"fmt"

	"dbest/internal/core"
	"dbest/internal/table"
)

// Sharded model ensembles: a spec with Shards >= 1 partitions a table's
// x-domain into K contiguous range shards (quantile cut points, so shards
// hold near-equal row counts) and trains one independent model pair per
// shard. The planner binds range queries to a ShardMerge operator that
// evaluates only the shards overlapping [lb, ub] and merges their partial
// aggregates, so a narrow query stops paying for the whole domain; the
// staleness ledger routes appended rows to the owning shard, so the
// background refresher retrains only the dirty shard instead of the whole
// model.

// TablePartition re-exports the range-partition metadata attached to a
// table when a sharded ensemble is trained over it.
type TablePartition = table.Partition

// createSharded executes a sharded spec: train the ensemble, swap it into
// the catalog under one generation bump — replacing any previous models for
// the same (table, xcol, ycol), plain or sharded, whatever the old K —
// attach partition metadata to the table, and register per-shard staleness
// tracking. Heavy value ties in the x column can collapse cut points, so the
// ensemble may come out smaller than requested (a single surviving shard
// degenerates to a plain unsharded model).
func (e *Engine) createSharded(ctx context.Context, spec *ModelSpec) (*TrainInfo, error) {
	tb := e.Table(spec.Table)
	if tb == nil {
		return nil, fmt.Errorf("dbest: table %q is not registered", spec.Table)
	}
	rows0 := tb.NumRows()
	sets, err := core.TrainShardedContext(ctx, tb, spec.XCols[0], spec.YCol, spec.Shards, spec.config())
	if err != nil {
		return nil, err
	}
	enc := spec.encode()
	for _, ms := range sets {
		ms.Spec = enc
	}
	for _, k := range e.catalog.ReplaceShards(sets) {
		e.ledger.Drop(k)
	}
	bounds := make([]float64, 0, len(sets)+1)
	bounds = append(bounds, sets[0].ShardLo)
	for _, ms := range sets {
		bounds = append(bounds, ms.ShardHi)
	}
	e.setPartition(spec.Table, &table.Partition{Col: spec.XCols[0], Bounds: bounds})
	for _, ms := range sets {
		e.track(ms, spec, rows0)
	}
	return shardedTrainInfo(sets), nil
}

// shardedTrainInfo folds the per-shard build statistics into one report.
// Times are summed across shards — the CPU cost of state building — even
// though shards train in parallel.
func shardedTrainInfo(sets []*core.ModelSet) *TrainInfo {
	info := &TrainInfo{Key: sets[0].BaseKey(), Shards: len(sets)}
	for _, ms := range sets {
		info.NumModels += ms.NumModels()
		info.ModelBytes += ms.Stats.ModelBytes
		info.SampleRows += ms.Stats.SampleRows
		info.SampleTime += ms.Stats.SampleTime
		info.TrainTime += ms.Stats.TrainTime
		info.Stages.Add(ms.Stats.Stages())
	}
	return info
}

// setPartition attaches range-partition metadata to the registered table
// through a copy-on-write swap, so concurrent readers of the old snapshot
// never observe a mutation.
func (e *Engine) setPartition(tbl string, p *table.Partition) {
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	tb := e.Table(tbl)
	if tb == nil {
		return
	}
	clone := tb.Clone()
	clone.Part = p
	e.setTable(tbl, clone)
}

// TablePartitioning reports the range-partition layout of the sharded
// ensemble most recently trained over a registered table, or nil.
func (e *Engine) TablePartitioning(tbl string) *TablePartition {
	tb := e.Table(tbl)
	if tb == nil {
		return nil
	}
	return tb.Part
}

// trackShard registers one shard's model set with the staleness ledger:
// appended rows landing in the shard's x-range accrue against it (and
// fast-forward its per-shard reservoir mirror), and its retrain closure
// rebuilds only this shard. spec is the sharded definition the ensemble
// was built from (spec.Shards is the requested K; the ensemble may have
// collapsed to fewer); rows0 is the table's row count when the training
// began — any rows that arrived since cannot be attributed to a shard
// after the fact, so they are credited to every shard, erring toward an
// eager retrain rather than a silently stale one.
func (e *Engine) trackShard(ms *core.ModelSet, spec *ModelSpec, rows0 int) {
	resCap, scale := core.DefaultSampleSize, 1.0
	if spec.SampleSize > 0 {
		resCap = spec.SampleSize
	}
	if spec.Scale > 0 {
		scale = spec.Scale
	}
	shardIdx, shards := ms.Shard, ms.Shards
	lo, hi := ms.ShardLo, ms.ShardHi
	baseRows := ms.PhysicalRows(scale)
	retrain := func(ctx context.Context) error {
		return e.retrainShard(ctx, spec, shardIdx, shards, lo, hi)
	}
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	if e.catalog.Get(ms.Key()) != ms {
		// A concurrent sharded CreateModel replaced the ensemble between the
		// catalog swap and this registration; tracking the dead member
		// would leave a ghost ledger entry retraining a key that no longer
		// serves queries.
		return
	}
	cur := baseRows
	if tb := e.Table(spec.Table); tb != nil {
		if extra := tb.NumRows() - rows0; extra > 0 {
			cur += extra
		}
	}
	e.ledger.RegisterShard(ms.Key(), []string{spec.Table}, baseRows, cur, resCap,
		core.ShardSeed(spec.Seed, shardIdx), spec.XCols[0], shardIdx, shards, lo, hi, retrain)
}

// retrainShard rebuilds one member of a sharded ensemble from the table's
// current rows in the shard's range and swaps it into the catalog — the
// per-shard refresh: the ensemble's clean shards are untouched, and the
// generation bump invalidates cached plans bound to the old member. The
// swap is conditional: if a concurrent sharded CreateModel replaced the
// whole ensemble while this retrain ran (the member's key is gone), the
// result is discarded rather than resurrected as a stray key of a dead
// ensemble. The fresh member re-carries the spec, so a catalog saved after
// per-shard refreshes still round-trips its definition.
func (e *Engine) retrainShard(ctx context.Context, spec *ModelSpec, shardIdx, shards int, lo, hi float64) error {
	tb := e.Table(spec.Table)
	if tb == nil {
		return fmt.Errorf("dbest: table %q is not registered", spec.Table)
	}
	rows0 := tb.NumRows()
	ms, err := core.TrainShardModelContext(ctx, tb, spec.XCols[0], spec.YCol, shardIdx, shards, lo, hi, spec.config())
	if err != nil {
		return err
	}
	ms.Spec = spec.encode()
	if !e.catalog.ReplaceMember(ms) {
		return nil // ensemble replaced mid-retrain; its ledger entry is gone too
	}
	e.trackShard(ms, spec, rows0)
	return nil
}

// ShardStats reports cumulative shard-pruning counters across every query
// the engine has executed: Evaluated counts shard models that ShardMerge
// operators actually integrated, Pruned the ones skipped because their
// range did not overlap the predicate. A healthy narrow-range workload
// over a K-shard ensemble shows Pruned ≈ (K-1)·queries.
type ShardStats struct {
	Evaluated uint64 `json:"shards_evaluated"`
	Pruned    uint64 `json:"shards_pruned"`
}

// ShardStats snapshots the engine's shard-pruning counters.
func (e *Engine) ShardStats() ShardStats {
	return ShardStats{
		Evaluated: e.shardCtrs.Evaluated.Load(),
		Pruned:    e.shardCtrs.Pruned.Load(),
	}
}
