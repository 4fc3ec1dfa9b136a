// Package catalog implements DBEst's model catalog (Fig. 1): the registry
// mapping column sets of tables to their trained models, with gob-based
// persistence and the model bundles of §2.3 ("Limitations") that let
// large-cardinality GROUP BY model collections spill to SSD and load on
// demand in ~100 ms.
//
// The catalog is split along the reader/writer axis: mutations (Put,
// RemoveMatching, ReplaceShards, Load, ...) run under a writer mutex against a
// builder map, and every mutation publishes a fresh immutable Snapshot
// through an atomic pointer. The read path — every lookup query planning
// does — goes through that snapshot and never takes a lock; see Snapshot.
package catalog

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbest/internal/core"
)

// Catalog is a concurrency-safe registry of trained model sets: the
// writer-side builder behind the atomically-published Snapshot the read
// path uses. Its read accessors (Get, Lookup*, Scan*, ...) delegate to the
// current snapshot and are lock-free; callers that need several reads to
// observe one consistent state should take one Snapshot() and read through
// it.
type Catalog struct {
	mu     sync.Mutex // serializes writers; never taken on the read path
	models map[string]*core.ModelSet
	gen    uint64

	// snap is the published immutable view; rebuilds counts publications.
	snap      atomic.Pointer[Snapshot]
	rebuilds  atomic.Uint64
	onPublish func(*Snapshot)
}

// New creates an empty catalog.
func New() *Catalog {
	c := &Catalog{models: make(map[string]*core.ModelSet)}
	c.snap.Store(&Snapshot{models: map[string]*core.ModelSet{}, byTable: map[string][]string{}})
	return c
}

// Snapshot returns the current published view. The returned snapshot is
// immutable: concurrent mutations publish fresh snapshots and never touch
// ones already handed out.
func (c *Catalog) Snapshot() *Snapshot { return c.snap.Load() }

// OnPublish registers fn to run after every snapshot publication, while the
// writer mutex is still held — publications are therefore delivered to fn
// strictly in generation order. The engine uses it to fold fresh catalog
// snapshots into its own read-path snapshot. fn must not call back into the
// catalog's mutating methods. Set it before the catalog is shared.
func (c *Catalog) OnPublish(fn func(*Snapshot)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPublish = fn
}

// Rebuilds reports how many snapshots the catalog has published — the
// write-side cost of the lock-free read path, one O(models) rebuild per
// mutation.
func (c *Catalog) Rebuilds() uint64 { return c.rebuilds.Load() }

// publishLocked builds and publishes a fresh snapshot of the builder state.
// Caller holds c.mu.
func (c *Catalog) publishLocked() {
	models := make(map[string]*core.ModelSet, len(c.models))
	byTable := make(map[string][]string)
	for k, ms := range c.models {
		models[k] = ms
		byTable[ms.Table] = append(byTable[ms.Table], k)
	}
	for _, ks := range byTable {
		sort.Strings(ks)
	}
	s := &Snapshot{gen: c.gen, models: models, byTable: byTable}
	c.snap.Store(s)
	c.rebuilds.Add(1)
	if c.onPublish != nil {
		c.onPublish(s)
	}
}

// Invalidate bumps the generation without changing the catalog contents.
// Callers use it when the data underneath the models changed out-of-band
// (e.g. a base table re-registered under the same name), so plan caches
// keyed on the generation re-plan instead of serving bindings made against
// the old data.
func (c *Catalog) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.publishLocked()
}

// Put registers a model set, replacing any previous set for the same key.
func (c *Catalog) Put(ms *core.ModelSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.models[ms.Key()] = ms
	c.gen++
	c.publishLocked()
}

// Get returns the model set with the exact key, or nil.
func (c *Catalog) Get(key string) *core.ModelSet { return c.Snapshot().Get(key) }

// Lookup finds a model set able to answer a query over table tbl; see
// Snapshot.Lookup.
func (c *Catalog) Lookup(tbl string, xcols []string, ycol, groupBy string) *core.ModelSet {
	return c.Snapshot().Lookup(tbl, xcols, ycol, groupBy)
}

// completeEnsemble checks that sets covers shards 0..Shards-1 exactly once
// and returns them sorted by shard index, or nil.
func completeEnsemble(sets []*core.ModelSet) []*core.ModelSet {
	if len(sets) == 0 || len(sets) != sets[0].Shards {
		return nil
	}
	out := make([]*core.ModelSet, len(sets))
	for _, ms := range sets {
		if ms.Shard < 0 || ms.Shard >= len(out) || out[ms.Shard] != nil {
			return nil
		}
		out[ms.Shard] = ms
	}
	return out
}

// ReplaceShards atomically replaces every model set sharing the ensemble's
// base key — the previous ensemble whatever its shard count, and any plain
// unsharded set for the same column pair — with the given sets, under one
// generation bump. It returns the keys it removed (minus those re-added),
// so the caller can drop their staleness-ledger entries.
func (c *Catalog) ReplaceShards(sets []*core.ModelSet) []string {
	if len(sets) == 0 {
		return nil
	}
	base := sets[0].BaseKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	added := make(map[string]bool, len(sets))
	for _, ms := range sets {
		added[ms.Key()] = true
	}
	var removed []string
	for k, ms := range c.models {
		if ms.BaseKey() == base && !added[k] {
			delete(c.models, k)
			removed = append(removed, k)
		}
	}
	for _, ms := range sets {
		c.models[ms.Key()] = ms
	}
	c.gen++
	c.publishLocked()
	sort.Strings(removed)
	return removed
}

// ReplaceMember overwrites the model set whose exact key is already
// present, reporting whether it did. It is the per-shard refresh commit: a
// background retrain may race a sharded build that replaced the whole
// ensemble (possibly with a different shard count), and blindly Putting
// the finished member would resurrect a stray key from the dead ensemble —
// an incomplete ghost that SaveModels could no longer round-trip. If the
// key is gone, the retrain result is discarded.
func (c *Catalog) ReplaceMember(ms *core.ModelSet) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.models[ms.Key()]; !ok {
		return false
	}
	c.models[ms.Key()] = ms
	c.gen++
	c.publishLocked()
	return true
}

// RemoveMatching deletes every model set accepted by match under one lock
// and one generation bump, returning the removed keys sorted. Callers
// dropping a sharded ensemble must match all its members — removing a
// subset would leave an incomplete ensemble that Load rejects.
func (c *Catalog) RemoveMatching(match func(ms *core.ModelSet) bool) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var removed []string
	for k, ms := range c.models {
		if match(ms) {
			delete(c.models, k)
			removed = append(removed, k)
		}
	}
	if len(removed) > 0 {
		c.gen++
		c.publishLocked()
	}
	sort.Strings(removed)
	return removed
}

// Scan visits every model set in sorted key order against the current
// snapshot, stopping early when fn returns false.
func (c *Catalog) Scan(fn func(ms *core.ModelSet) bool) { c.Snapshot().Scan(fn) }

// Keys returns the sorted keys of all registered model sets.
func (c *Catalog) Keys() []string { return c.Snapshot().Keys() }

// Len returns the number of registered model sets.
func (c *Catalog) Len() int { return c.Snapshot().Len() }

// TotalBytes sums the train-time serialized size of all model sets — the
// catalog's in-memory state footprint.
func (c *Catalog) TotalBytes() int { return c.Snapshot().TotalBytes() }

// Save serializes the whole catalog to w, as of the current snapshot.
func (c *Catalog) Save(w io.Writer) error {
	s := c.Snapshot()
	sets := make([]*core.ModelSet, 0, s.Len())
	for _, k := range s.Keys() {
		sets = append(sets, s.Get(k))
	}
	return gob.NewEncoder(w).Encode(sets)
}

// Load replaces the catalog contents with the sets serialized in r. A file
// whose shard-suffixed keys do not form complete ensembles — shards
// missing, or the same column pair saved under mixed shard counts — is
// rejected and the current catalog is left untouched: loading it would
// silently serve a partial ensemble that drops part of the x-domain. Models
// saved without an evaluation grid get theirs rebuilt (core's EnsureGrids);
// one that cannot be tabulated rejects the file the same way.
func (c *Catalog) Load(r io.Reader) error {
	var sets []*core.ModelSet
	if err := gob.NewDecoder(r).Decode(&sets); err != nil {
		return fmt.Errorf("catalog: decode: %w", err)
	}
	models := make(map[string]*core.ModelSet, len(sets))
	for _, ms := range sets {
		models[ms.Key()] = ms
	}
	if err := validateShardEnsembles(models); err != nil {
		return err
	}
	for _, ms := range sets {
		if err := ms.EnsureGrids(); err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.models = models
	c.gen++
	c.publishLocked()
	return nil
}

// validateShardEnsembles checks that every sharded ensemble in models is
// complete and internally consistent.
func validateShardEnsembles(models map[string]*core.ModelSet) error {
	type group struct {
		shards int
		seen   map[int]bool
	}
	groups := make(map[string]*group)
	for _, ms := range models {
		if ms.Shards <= 1 {
			continue
		}
		base := ms.BaseKey()
		g := groups[base]
		if g == nil {
			g = &group{shards: ms.Shards, seen: make(map[int]bool)}
			groups[base] = g
		}
		if g.shards != ms.Shards {
			return fmt.Errorf("catalog: ensemble %s mixes shard counts %d and %d; retrain it with one SHARDS value",
				base, g.shards, ms.Shards)
		}
		if ms.Shard < 0 || ms.Shard >= ms.Shards {
			return fmt.Errorf("catalog: ensemble %s has out-of-range shard index %d of %d", base, ms.Shard, ms.Shards)
		}
		g.seen[ms.Shard] = true
	}
	for base, g := range groups {
		if len(g.seen) != g.shards {
			return fmt.Errorf("catalog: ensemble %s is incomplete: %d of %d shards present; retrain it with TRAIN ... SHARDS %d",
				base, len(g.seen), g.shards, g.shards)
		}
	}
	return nil
}

// SaveFile persists the catalog to path, replacing a previous file only
// once the new one is completely on disk.
func (c *Catalog) SaveFile(path string) error {
	_, err := writeFileAtomic(path, c.Save)
	return err
}

// writeFileAtomic replaces path with what encode writes, or leaves it as it
// was: the bytes go to a temp file in path's directory, are synced, and the
// temp is renamed over path; the directory is synced so the rename itself
// survives a crash. On any error the temp file is removed. It returns the
// number of bytes written.
func writeFileAtomic(path string, encode func(io.Writer) error) (size int64, err error) {
	// Not os.CreateTemp, which creates 0600: the saved file gets the
	// umask-derived mode, so another user's process can still load it.
	tmp := fmt.Sprintf("%s.tmp-%x", path, time.Now().UnixNano())
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close() // a no-op past the checked Close below
			os.Remove(tmp)
		}
	}()
	if err = encode(f); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return 0, err
	}
	defer dir.Close()
	return info.Size(), dir.Sync()
}

// LoadFile loads a catalog persisted by SaveFile.
func (c *Catalog) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.Load(f)
}
