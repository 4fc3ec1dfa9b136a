package catalog

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"time"

	"dbest/internal/core"
)

// Bundle packages one model set for on-disk (SSD) storage — the paper's
// "model bundles, each of which bundles all the models needed by a query
// with a large number of groups" (§2.3 Limitations). The workflow is:
// serialize large-group model sets with WriteBundle, drop them from memory,
// and ReadBundle on demand; the paper measures <132 ms to load and
// deserialize a 500-group bundle. The set's persisted declarative spec
// (ModelSet.Spec) rides along, so a bundled model re-registered with an
// engine stays refreshable like any catalog-loaded one.
type Bundle struct {
	Key string
	Set *core.ModelSet
}

// BundleStats reports bundle I/O measurements for the §2.3 experiment.
type BundleStats struct {
	Bytes     int
	WriteTime time.Duration
	ReadTime  time.Duration
	NumModels int
	// HasSpec reports whether the bundled set carries its persisted model
	// spec (models trained through CreateModel do; pre-spec bundles don't).
	HasSpec bool
}

// WriteBundle serializes the model set to path and reports its size.
func WriteBundle(path string, ms *core.ModelSet) (BundleStats, error) {
	var st BundleStats
	t0 := time.Now()
	size, err := writeFileAtomic(path, func(w io.Writer) error {
		if err := gob.NewEncoder(w).Encode(&Bundle{Key: ms.Key(), Set: ms}); err != nil {
			return fmt.Errorf("catalog: encode bundle: %w", err)
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	st.Bytes = int(size)
	st.WriteTime = time.Since(t0)
	st.NumModels = ms.NumModels()
	st.HasSpec = len(ms.Spec) > 0
	return st, nil
}

// ReadBundle loads a bundle from path, reporting deserialization time. A
// model bundled without an evaluation grid gets it rebuilt, as a catalog
// load does.
func ReadBundle(path string) (*core.ModelSet, BundleStats, error) {
	var st BundleStats
	t0 := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, st, err
	}
	defer f.Close()
	var b Bundle
	if err := gob.NewDecoder(f).Decode(&b); err != nil {
		return nil, st, fmt.Errorf("catalog: decode bundle: %w", err)
	}
	if err := b.Set.EnsureGrids(); err != nil {
		return nil, st, fmt.Errorf("catalog: bundle: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		return nil, st, err
	}
	st.Bytes = int(info.Size())
	st.ReadTime = time.Since(t0)
	st.NumModels = b.Set.NumModels()
	st.HasSpec = len(b.Set.Spec) > 0
	return b.Set, st, nil
}
