package catalog

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dbest/internal/core"
	"dbest/internal/exact"
	"dbest/internal/table"
)

// remove deletes the one model set with the given key.
func remove(c *Catalog, key string) {
	c.RemoveMatching(func(ms *core.ModelSet) bool { return ms.Key() == key })
}

func trainedSet(t *testing.T, name string, groupBy string) *core.ModelSet {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	n := 5000
	xs := make([]float64, n)
	ys := make([]float64, n)
	gs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = 3*xs[i] + rng.NormFloat64()
		gs[i] = int64(i % 3)
	}
	tb := table.New(name)
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	tb.AddIntColumn("g", gs)
	ms, err := core.Train(tb, []string{"x"}, "y", &core.TrainConfig{
		SampleSize: 1000, Seed: 1, GroupBy: groupBy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestPutGetLookup(t *testing.T) {
	c := New()
	ms := trainedSet(t, "t1", "")
	c.Put(ms)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Get(ms.Key()); got != ms {
		t.Fatal("Get by key failed")
	}
	if got := c.Lookup("t1", []string{"x"}, "y", ""); got != ms {
		t.Fatal("Lookup failed")
	}
	if got := c.Lookup("t1", []string{"x"}, "z", ""); got != nil {
		t.Fatal("Lookup should miss for unknown y")
	}
	if got := c.Lookup("other", []string{"x"}, "y", ""); got != nil {
		t.Fatal("Lookup should miss for unknown table")
	}
}

func TestLookupDensityFallback(t *testing.T) {
	// A query aggregating the predicate column itself (e.g. VARIANCE(x)
	// WHERE x BETWEEN ...) can be served by any model set over x.
	c := New()
	ms := trainedSet(t, "t1", "")
	c.Put(ms)
	if got := c.Lookup("t1", []string{"x"}, "x", ""); got != ms {
		t.Fatal("density-only fallback failed")
	}
	if got := c.Lookup("t1", []string{"x"}, "x", "g"); got != nil {
		t.Fatal("fallback must respect group-by")
	}
}

func TestRemoveAndKeys(t *testing.T) {
	c := New()
	a := trainedSet(t, "a", "")
	b := trainedSet(t, "b", "")
	c.Put(a)
	c.Put(b)
	keys := c.Keys()
	if len(keys) != 2 || keys[0] > keys[1] {
		t.Fatalf("Keys = %v", keys)
	}
	remove(c, a.Key())
	if c.Len() != 1 || c.Get(a.Key()) != nil {
		t.Fatal("Remove failed")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := New()
	ms := trainedSet(t, "t1", "")
	c.Put(ms)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := New()
	if err := c2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := c2.Get(ms.Key())
	if got == nil {
		t.Fatal("loaded catalog missing model set")
	}
	// The deserialized models must answer queries identically.
	want, err := ms.EvaluateUni(exact.Avg, 2, 8, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.EvaluateUni(exact.Avg, 2, 8, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want.Value-have.Value) > 1e-12 {
		t.Fatalf("answers differ after round trip: %v vs %v", want.Value, have.Value)
	}
}

func TestSaveLoadFile(t *testing.T) {
	c := New()
	c.Put(trainedSet(t, "t1", "g"))
	path := t.TempDir() + "/catalog.gob"
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	c2 := New()
	if err := c2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d", c2.Len())
	}
	if err := c2.LoadFile(path + ".missing"); err == nil {
		t.Fatal("want error for missing file")
	}
}

// A save that fails must leave the previous file as it was and no temp file
// behind: saves go to a temp in the target's directory and are renamed over
// the target only once complete. Three failures: an encoder that dies after
// writing part of its output, the real encoders dying on a set gob rejects
// (a nil group model; by then gob has already written its type descriptors),
// and a temp file that cannot be created (the target's name leaves no room
// for the temp suffix within the 255-byte limit).
func TestFailedSaveKeepsOldFile(t *testing.T) {
	var old bytes.Buffer
	oldCat := New()
	oldCat.Put(trainedSet(t, "t0", ""))
	if err := oldCat.Save(&old); err != nil {
		t.Fatal(err)
	}
	bad := trainedSet(t, "t1", "g")
	bad.Groups[99] = nil
	badCat := New()
	badCat.Put(bad)

	for _, tc := range []struct {
		name, file string
		save       func(path string) error
	}{
		{"encoder fails part-way", "catalog.gob", func(path string) error {
			_, err := writeFileAtomic(path, func(w io.Writer) error {
				if _, err := w.Write([]byte("half a catalog")); err != nil {
					return err
				}
				return errors.New("disk on fire")
			})
			return err
		}},
		{"SaveFile", "catalog.gob", badCat.SaveFile},
		{"WriteBundle", "bundle.gob", func(path string) error {
			_, err := WriteBundle(path, bad)
			return err
		}},
		{"temp cannot be created", strings.Repeat("n", 250), New().SaveFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.save(path); err == nil {
				t.Fatal("save succeeded, want an error")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(old.Bytes(), after) {
				t.Fatalf("failed save changed the old file: %d bytes before, %d after", old.Len(), len(after))
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("failed save left litter: %v", entries)
			}
		})
	}
}

func TestLoadGarbage(t *testing.T) {
	c := New()
	if err := c.Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("want decode error")
	}
}

func TestTotalBytes(t *testing.T) {
	c := New()
	if c.TotalBytes() != 0 {
		t.Fatal("empty catalog should have zero bytes")
	}
	c.Put(trainedSet(t, "t1", ""))
	if c.TotalBytes() <= 0 {
		t.Fatal("TotalBytes must be positive")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	ms := trainedSet(t, "t1", "g")
	path := t.TempDir() + "/bundle.gob"
	wst, err := WriteBundle(path, ms)
	if err != nil {
		t.Fatal(err)
	}
	if wst.Bytes <= 0 || wst.NumModels != ms.NumModels() {
		t.Fatalf("write stats = %+v", wst)
	}
	got, rst, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Bytes != wst.Bytes {
		t.Fatalf("size mismatch: %d vs %d", rst.Bytes, wst.Bytes)
	}
	if got.Key() != ms.Key() {
		t.Fatalf("key = %q, want %q", got.Key(), ms.Key())
	}
	// Loaded per-group models answer like the originals.
	want, _ := ms.EvaluateUni(exact.Count, 2, 8, false, nil)
	have, err := got.EvaluateUni(exact.Count, 2, 8, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) != len(have.Groups) {
		t.Fatal("group answers differ after bundle round trip")
	}
	for i := range want.Groups {
		if math.Abs(want.Groups[i].Value-have.Groups[i].Value) > 1e-12 {
			t.Fatal("group values differ after bundle round trip")
		}
	}
	if _, _, err := ReadBundle(path + ".missing"); err == nil {
		t.Fatal("want error for missing bundle")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	ms := trainedSet(t, "t1", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Put(ms)
				_ = c.Get(ms.Key())
				_ = c.Lookup("t1", []string{"x"}, "y", "")
				_ = c.Keys()
				_ = c.Len()
			}
		}()
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestGeneration(t *testing.T) {
	c := New()
	if g := c.Snapshot().Generation(); g != 0 {
		t.Fatalf("fresh generation = %d", g)
	}
	ms := trainedSet(t, "t1", "")
	c.Put(ms)
	g1 := c.Snapshot().Generation()
	if g1 == 0 {
		t.Fatal("Put must bump the generation")
	}
	remove(c, ms.Key())
	g2 := c.Snapshot().Generation()
	if g2 <= g1 {
		t.Fatalf("Remove must bump the generation: %d -> %d", g1, g2)
	}

	// Load bumps too, even when it installs identical contents: plans
	// derived from the old catalog must not survive a wholesale replace.
	full := New()
	full.Put(trainedSet(t, "t2", ""))
	var buf bytes.Buffer
	if err := full.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if g3 := c.Snapshot().Generation(); g3 <= g2 {
		t.Fatalf("Load must bump the generation: %d -> %d", g2, g3)
	}
}

func TestScan(t *testing.T) {
	c := New()
	a := trainedSet(t, "a", "")
	b := trainedSet(t, "b", "")
	c.Put(b)
	c.Put(a)

	var seen []string
	c.Scan(func(ms *core.ModelSet) bool {
		seen = append(seen, ms.Key())
		return true
	})
	if len(seen) != 2 || seen[0] > seen[1] {
		t.Fatalf("Scan order = %v, want sorted keys", seen)
	}

	// Returning false stops the scan early.
	count := 0
	c.Scan(func(ms *core.ModelSet) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early-stop scan visited %d sets, want 1", count)
	}
}

// fakeSet builds a minimal model set for index tests without training.
func fakeSet(tbl, xcol, ycol string) *core.ModelSet {
	return &core.ModelSet{Table: tbl, XCols: []string{xcol}, YCol: ycol}
}

func TestScanTableVisitsOnlyThatTable(t *testing.T) {
	c := New()
	a1 := fakeSet("a", "x", "y")
	a2 := fakeSet("a", "x", "z")
	b1 := fakeSet("b", "x", "y")
	c.Put(a1)
	c.Put(a2)
	c.Put(b1)

	var keys []string
	c.Snapshot().ScanTable("a", func(ms *core.ModelSet) bool {
		if ms.Table != "a" {
			t.Fatalf("ScanTable(a) visited table %q", ms.Table)
		}
		keys = append(keys, ms.Key())
		return true
	})
	if len(keys) != 2 {
		t.Fatalf("ScanTable(a) visited %d sets, want 2", len(keys))
	}
	// Sorted key order, like Scan.
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("ScanTable order not sorted: %v", keys)
	}
	// Early stop.
	n := 0
	c.Snapshot().ScanTable("a", func(ms *core.ModelSet) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	// Unknown table: no visits.
	c.Snapshot().ScanTable("zzz", func(ms *core.ModelSet) bool { t.Fatal("visited"); return true })
}

func TestScanTableIndexInvalidation(t *testing.T) {
	c := New()
	c.Put(fakeSet("a", "x", "y"))
	count := func() int {
		n := 0
		c.Snapshot().ScanTable("a", func(*core.ModelSet) bool { n++; return true })
		return n
	}
	if got := count(); got != 1 {
		t.Fatalf("initial = %d", got)
	}
	// Put after the index was built: generation bump must invalidate it.
	ms2 := fakeSet("a", "x", "z")
	c.Put(ms2)
	if got := count(); got != 2 {
		t.Fatalf("after Put = %d, want 2", got)
	}
	remove(c, ms2.Key())
	if got := count(); got != 1 {
		t.Fatalf("after Remove = %d, want 1", got)
	}
	// Load replaces contents wholesale.
	var buf bytes.Buffer
	src := New()
	src.Put(fakeSet("a", "q", "r"))
	src.Put(fakeSet("a", "s", "u"))
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 2 {
		t.Fatalf("after Load = %d, want 2", got)
	}
}

// TestScanTableConcurrent exercises the lazy index rebuild under -race:
// readers rebuilding concurrently with writers invalidating.
func TestScanTableConcurrent(t *testing.T) {
	c := New()
	c.Put(fakeSet("a", "x", "y"))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Snapshot().ScanTable("a", func(ms *core.ModelSet) bool { return true })
				c.Snapshot().LookupNominal("a", "x", "y", "nom")
			}
		}()
	}
	for i := 0; i < 200; i++ {
		ms := fakeSet("a", "x", "y")
		c.Put(ms)
		if i%3 == 0 {
			remove(c, ms.Key())
		}
	}
	close(stop)
	wg.Wait()
}

func TestInvalidateBumpsGenerationWithoutMutation(t *testing.T) {
	c := New()
	ms := trainedSet(t, "t1", "")
	c.Put(ms)
	g0 := c.Snapshot().Generation()
	n0 := c.Len()
	c.Invalidate()
	if got := c.Snapshot().Generation(); got != g0+1 {
		t.Fatalf("Generation = %d after Invalidate, want %d", got, g0+1)
	}
	if c.Len() != n0 {
		t.Fatalf("Len changed by Invalidate: %d -> %d", n0, c.Len())
	}
	if c.Get(ms.Key()) == nil {
		t.Fatal("Invalidate dropped catalog contents")
	}
}

// stubUni is one small trained model pair that every shardSet member
// shares: the catalog tests care about keys and shard metadata, and a
// loaded catalog must hold models that can serve.
var stubUni = sync.OnceValue(func() *core.UniModel {
	tb := table.New("stub")
	tb.AddFloatColumn("x", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	tb.AddFloatColumn("y", []float64{2, 4, 6, 8, 10, 12, 14, 16})
	ms, err := core.Train(tb, []string{"x"}, "y", &core.TrainConfig{Seed: 1})
	if err != nil {
		panic(err)
	}
	return ms.Uni
})

// shardSet builds a minimal sharded model-set member for catalog tests.
func shardSet(tbl, x, y string, i, k int) *core.ModelSet {
	return &core.ModelSet{
		Table: tbl, XCols: []string{x}, YCol: y, N: 100,
		Uni:   stubUni(),
		Shard: i, Shards: k,
		ShardLo: float64(i * 10), ShardHi: float64((i + 1) * 10),
	}
}

func shardEnsemble(tbl, x, y string, k int) []*core.ModelSet {
	sets := make([]*core.ModelSet, k)
	for i := range sets {
		sets[i] = shardSet(tbl, x, y, i, k)
	}
	return sets
}

func TestLookupSharded(t *testing.T) {
	c := New()
	for _, ms := range shardEnsemble("t", "x", "y", 4) {
		c.Put(ms)
	}
	sets := c.Snapshot().LookupSharded("t", "x", "y")
	if len(sets) != 4 {
		t.Fatalf("LookupSharded = %d sets, want 4", len(sets))
	}
	for i, ms := range sets {
		if ms.Shard != i {
			t.Fatalf("sets not in shard order: %d at %d", ms.Shard, i)
		}
	}
	// Density fallback: aggregates over the split column itself match.
	if got := c.Snapshot().LookupSharded("t", "x", "x"); len(got) != 4 {
		t.Fatalf("density fallback = %d sets, want 4", len(got))
	}
	if got := c.Snapshot().LookupSharded("t", "x", "z"); got != nil {
		t.Fatal("LookupSharded must miss for an unknown y column")
	}
	if got := c.Snapshot().LookupShardedAny("t", "y"); len(got) != 4 {
		t.Fatalf("LookupShardedAny(y) = %d sets, want 4", len(got))
	}
	if got := c.Snapshot().LookupShardedAny("t", "*"); len(got) != 4 {
		t.Fatalf("LookupShardedAny(*) = %d sets, want 4", len(got))
	}
	// An incomplete ensemble must never be served.
	remove(c, shardSet("t", "x", "y", 2, 4).Key())
	if got := c.Snapshot().LookupSharded("t", "x", "y"); got != nil {
		t.Fatalf("LookupSharded returned a partial ensemble: %d sets", len(got))
	}
}

func TestReplaceShards(t *testing.T) {
	c := New()
	// A plain unsharded set for the same pair, plus an old K=2 ensemble.
	plain := &core.ModelSet{Table: "t", XCols: []string{"x"}, YCol: "y", N: 1,
		Uni: &core.UniModel{XCol: "x", YCol: "y", N: 1}}
	c.Put(plain)
	for _, ms := range shardEnsemble("t", "x", "y", 2) {
		c.Put(ms)
	}
	other := trainedSet(t, "t2", "")
	c.Put(other)
	gen := c.Snapshot().Generation()

	removed := c.ReplaceShards(shardEnsemble("t", "x", "y", 4))
	if len(removed) != 3 { // plain + 2 old shards
		t.Fatalf("removed = %v, want plain key and both K=2 shard keys", removed)
	}
	if c.Snapshot().Generation() != gen+1 {
		t.Fatalf("generation bumped %d times, want exactly once", c.Snapshot().Generation()-gen)
	}
	if got := c.Snapshot().LookupSharded("t", "x", "y"); len(got) != 4 {
		t.Fatalf("after replace: %d sets, want 4", len(got))
	}
	if c.Get(plain.Key()) != nil {
		t.Fatal("plain set for the same pair must be replaced by the ensemble")
	}
	if c.Get(other.Key()) == nil {
		t.Fatal("unrelated model sets must survive ReplaceShards")
	}
}

// TestLoadRejectsPartialShardEnsembles: a persisted catalog with an
// incomplete or mixed-shard-count ensemble must be rejected wholesale,
// leaving the current catalog intact.
func TestLoadRejectsPartialShardEnsembles(t *testing.T) {
	save := func(c *Catalog) []byte {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Complete ensemble round-trips.
	c := New()
	for _, ms := range shardEnsemble("t", "x", "y", 4) {
		c.Put(ms)
	}
	dst := New()
	if err := dst.Load(bytes.NewReader(save(c))); err != nil {
		t.Fatalf("complete ensemble rejected: %v", err)
	}
	if got := dst.Snapshot().LookupSharded("t", "x", "y"); len(got) != 4 {
		t.Fatalf("round trip lost shards: %d of 4", len(got))
	}

	// Missing shard: rejected, destination untouched.
	remove(c, shardSet("t", "x", "y", 1, 4).Key())
	partial := save(c)
	if err := dst.Load(bytes.NewReader(partial)); err == nil {
		t.Fatal("want error loading a partial ensemble")
	}
	if got := dst.Snapshot().LookupSharded("t", "x", "y"); len(got) != 4 {
		t.Fatal("failed load must leave the previous catalog intact")
	}

	// Mixed shard counts for one base key: rejected.
	c2 := New()
	for _, ms := range shardEnsemble("t", "x", "y", 2) {
		c2.Put(ms)
	}
	c2.Put(shardSet("t", "x", "y", 2, 4))
	if err := dst.Load(bytes.NewReader(save(c2))); err == nil {
		t.Fatal("want error loading mixed shard counts")
	}
}

// TestLoadRejectsModelWithoutGrid: a model saved without an evaluation
// grid gets one at load, from its density and regressor; one that has
// neither to build it from rejects the file, naming the model, and the
// current catalog stays.
func TestLoadRejectsModelWithoutGrid(t *testing.T) {
	var buf bytes.Buffer
	src := New()
	src.Put(trainedSet(t, "a", ""))
	src.Put(&core.ModelSet{Table: "t", XCols: []string{"x"}, YCol: "y", N: 1,
		Uni: &core.UniModel{XCol: "x", YCol: "y", N: 1}})
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New()
	dst.Put(trainedSet(t, "kept", ""))
	err := dst.Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "t|x|y|") || !strings.Contains(err.Error(), "grid") {
		t.Fatalf("Load = %v, want an error naming model t|x|y| and its grid", err)
	}
	if dst.Len() != 1 || dst.Get(core.Key("kept", []string{"x"}, "y", "")) == nil {
		t.Fatal("failed load must leave the previous catalog intact")
	}

	// Without its grid, a trained model loads with the one training built.
	ms := trainedSet(t, "b", "")
	want := ms.Uni.Grid
	ms.Uni.Grid = nil
	buf.Reset()
	src = New()
	src.Put(ms)
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := dst.Get(ms.Key()).Uni.Grid; !reflect.DeepEqual(got, want) {
		t.Fatal("the grid rebuilt at load differs from the one training built")
	}
}

// TestReplaceMemberGuardsStaleRetrains: a per-shard retrain finishing
// after its ensemble was replaced must not resurrect the dead key.
func TestReplaceMemberGuardsStaleRetrains(t *testing.T) {
	c := New()
	for _, ms := range shardEnsemble("t", "x", "y", 2) {
		c.Put(ms)
	}
	// In-place refresh of a live member succeeds and bumps the generation.
	gen := c.Snapshot().Generation()
	fresh := shardSet("t", "x", "y", 1, 2)
	if !c.ReplaceMember(fresh) {
		t.Fatal("refresh of a live member must succeed")
	}
	if c.Get(fresh.Key()) != fresh || c.Snapshot().Generation() != gen+1 {
		t.Fatal("member not swapped in")
	}
	// The ensemble is replaced with K=4; a K=2 retrain result must be
	// discarded, leaving the catalog exactly the 4 new keys.
	c.ReplaceShards(shardEnsemble("t", "x", "y", 4))
	if c.ReplaceMember(shardSet("t", "x", "y", 1, 2)) {
		t.Fatal("retrain of a dead ensemble member must be discarded")
	}
	if c.Len() != 4 {
		t.Fatalf("catalog has %d sets, want 4", c.Len())
	}
}
