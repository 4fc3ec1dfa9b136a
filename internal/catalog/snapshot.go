package catalog

import (
	"fmt"
	"sort"

	"dbest/internal/core"
)

// Snapshot is an immutable point-in-time view of the catalog: the model
// sets, the per-table key index and the generation they were published
// under. Snapshots are built by the writer side under the catalog mutex and
// published through an atomic pointer, so the read path — every catalog
// lookup a query makes — resolves against one consistent view without
// taking any lock. A reader that loaded a snapshot keeps a fully coherent
// catalog for as long as it holds the pointer; concurrent mutations publish
// fresh snapshots without disturbing it, and an abandoned snapshot is
// garbage-collected once the last in-flight query drops it.
type Snapshot struct {
	gen     uint64
	models  map[string]*core.ModelSet
	byTable map[string][]string // sorted model-set keys per table
}

// Generation reports the catalog generation this snapshot was published
// under. It increases on every catalog mutation (Put, RemoveMatching, Load,
// Invalidate), so plan caches compare generations to detect staleness.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Get returns the model set with the exact key, or nil.
func (s *Snapshot) Get(key string) *core.ModelSet { return s.models[key] }

// Len reports the number of registered model sets.
func (s *Snapshot) Len() int { return len(s.models) }

// Keys returns the sorted keys of all registered model sets.
func (s *Snapshot) Keys() []string {
	out := make([]string, 0, len(s.models))
	for k := range s.models {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums the serialized size of all model sets, as measured when
// each was trained (Stats.ModelBytes) — the catalog's in-memory state
// footprint.
func (s *Snapshot) TotalBytes() int {
	total := 0
	for _, ms := range s.models {
		total += ms.Stats.ModelBytes
	}
	return total
}

// Scan visits every model set in sorted key order, stopping early when fn
// returns false.
func (s *Snapshot) Scan(fn func(ms *core.ModelSet) bool) {
	for _, k := range s.Keys() {
		if !fn(s.models[k]) {
			return
		}
	}
}

// ScanTable visits the model sets registered for table tbl in sorted key
// order, stopping early when fn returns false. It costs O(models on tbl)
// via the per-table index instead of O(catalog) like Scan; the index is
// built once at publish time, so unlike the old locked catalog there is no
// lazy rebuild (and no staleness re-check) on the read path.
func (s *Snapshot) ScanTable(tbl string, fn func(ms *core.ModelSet) bool) {
	for _, k := range s.byTable[tbl] {
		if !fn(s.models[k]) {
			return
		}
	}
}

// Lookup finds a model set able to answer a query over table tbl with
// predicate columns xcols, aggregate column ycol and optional group-by.
// A ycol equal to one of the predicate columns also matches a model set
// whose x column is that column (density-based aggregates need no R).
func (s *Snapshot) Lookup(tbl string, xcols []string, ycol, groupBy string) *core.ModelSet {
	if ms := s.Get(core.Key(tbl, xcols, ycol, groupBy)); ms != nil {
		return ms
	}
	// Density-only fallback: any model set on the same table, same x
	// columns and group-by can answer aggregates over x itself. Members of
	// sharded ensembles are excluded — one shard covers one slice of the
	// domain and must only ever be served through LookupSharded's merge —
	// and so are sketch sets, which carry no density model at all.
	var found *core.ModelSet
	if len(xcols) == 1 && ycol == xcols[0] {
		s.ScanTable(tbl, func(ms *core.ModelSet) bool {
			if ms.Sketch == nil && ms.Shards <= 1 && ms.GroupBy == groupBy &&
				len(ms.XCols) == 1 && ms.XCols[0] == xcols[0] {
				found = ms
				return false
			}
			return true
		})
	}
	return found
}

// LookupSketch finds the sketch set of the given kind over table tbl and
// column col, or nil.
func (s *Snapshot) LookupSketch(tbl, col, kind string) *core.ModelSet {
	return s.Get(core.Key(tbl, []string{col}, "", "sketch:"+kind))
}

// LookupSharded finds the complete sharded ensemble able to answer a query
// over table tbl with predicate column xcol and aggregate column ycol: the
// Shards model sets of one ensemble, sorted by shard index. Like Lookup, a
// ycol equal to xcol falls back to any ensemble split on that column
// (density-based aggregates need no R). An incomplete ensemble — some
// shard keys missing or mixed shard counts — is never returned: serving a
// partial ensemble would silently drop part of the domain.
func (s *Snapshot) LookupSharded(tbl, xcol, ycol string) []*core.ModelSet {
	exactMatch := s.lookupShardedBy(tbl, func(ms *core.ModelSet) bool {
		return ms.XCols[0] == xcol && ms.YCol == ycol
	})
	if exactMatch != nil {
		return exactMatch
	}
	if ycol != xcol {
		return nil
	}
	return s.lookupShardedBy(tbl, func(ms *core.ModelSet) bool {
		return ms.XCols[0] == xcol
	})
}

// LookupShardedAny finds a complete sharded ensemble on tbl whose x or y
// column matches col — the sharded analogue of the planner's predicate-free
// lookup. col "*" matches any ensemble.
func (s *Snapshot) LookupShardedAny(tbl, col string) []*core.ModelSet {
	return s.lookupShardedBy(tbl, func(ms *core.ModelSet) bool {
		return ms.XCols[0] == col || ms.YCol == col || col == "*"
	})
}

// lookupShardedBy collects tbl's sharded univariate model sets accepted by
// match, buckets them by base key and shard count, and returns the first
// (by base key order) complete ensemble, sorted by shard index.
func (s *Snapshot) lookupShardedBy(tbl string, match func(*core.ModelSet) bool) []*core.ModelSet {
	buckets := make(map[string][]*core.ModelSet)
	s.ScanTable(tbl, func(ms *core.ModelSet) bool {
		if ms.Shards > 1 && ms.GroupBy == "" && ms.NominalBy == "" &&
			len(ms.XCols) == 1 && ms.Uni != nil && match(ms) {
			b := fmt.Sprintf("%s@%d", ms.BaseKey(), ms.Shards)
			buckets[b] = append(buckets[b], ms)
		}
		return true
	})
	names := make([]string, 0, len(buckets))
	for b := range buckets {
		names = append(names, b)
	}
	sort.Strings(names)
	for _, b := range names {
		if sets := completeEnsemble(buckets[b]); sets != nil {
			return sets
		}
	}
	return nil
}

// LookupNominal finds a model set keyed by nominal values of nominalBy able
// to answer queries with an equality predicate on that column.
func (s *Snapshot) LookupNominal(tbl, xcol, ycol, nominalBy string) *core.ModelSet {
	var found *core.ModelSet
	s.ScanTable(tbl, func(ms *core.ModelSet) bool {
		if ms.NominalBy != nominalBy || len(ms.XCols) != 1 || ms.XCols[0] != xcol {
			return true
		}
		if ms.YCol == ycol || ycol == xcol || ycol == "*" {
			found = ms
			return false
		}
		return true
	})
	return found
}
