package dbest

import (
	"errors"
	"fmt"

	"dbest/internal/core"
	"dbest/internal/ingest"
	"dbest/internal/table"
)

// Streaming ingestion (package internal/ingest): the engine's train-once
// pipeline becomes a lifecycle — rows arrive via Append, per-model
// staleness accrues in a ledger, a background refresher retrains stale
// models, and the catalog generation bump makes the plan cache drop plans
// bound to the replaced models. The query path is never blocked: Append
// swaps in a copy-on-write table snapshot and retrains swap whole model
// sets, so concurrent readers always see a consistent state.

// RowError reports why one row of an Append batch was rejected. Rows fail
// individually; the rest of the batch is still appended.
type RowError struct {
	Row int    `json:"row"`
	Err string `json:"error"`
}

// AppendResult summarizes one Append batch.
type AppendResult struct {
	Appended int        // rows appended
	Rejected int        // rows rejected (schema mismatch)
	Errors   []RowError // one entry per rejected row, in input order
	NumRows  int        // table row count after the append
}

// Append appends a batch of rows to the registered table tbl, with values
// in column order (see Table.AppendRow for the accepted types). Rows that
// fail schema validation are rejected individually and reported in the
// result; valid rows are appended atomically from the point of view of
// concurrent queries, which keep scanning the pre-append snapshot until
// the new one is swapped in. Every appended row feeds the staleness ledger
// of the models trained over tbl.
func (e *Engine) Append(tbl string, rows [][]interface{}) (*AppendResult, error) {
	// appendMu keeps the head table stable while the batch is validated and
	// appended OUTSIDE the engine lock, so concurrent queries resolving
	// tables never wait behind a large batch; e.mu is held only for the
	// head read and the final pointer swap.
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	tb := e.Table(tbl)
	if tb == nil {
		return nil, fmt.Errorf("dbest: table %q is not registered", tbl)
	}
	// Copy-on-write: append into a shallow clone and swap it in, so readers
	// holding the old *Table never observe a growing column.
	clone := tb.Clone()
	res := &AppendResult{}
	for i, row := range rows {
		if err := clone.AppendRow(row...); err != nil {
			res.Rejected++
			res.Errors = append(res.Errors, RowError{Row: i, Err: err.Error()})
			continue
		}
		res.Appended++
	}
	if res.Appended > 0 {
		e.setTable(tbl, clone)
		e.ledger.AppendValues(tbl, res.Appended,
			appendedVals(clone, tb.NumRows()), appendedStrs(clone, tb.NumRows()))
	}
	res.NumRows = clone.NumRows()
	return res, nil
}

// appendedVals builds the ledger's column accessor for the rows appended to
// clone past from: sharded ledger entries use it to route each appended row
// to its owning shard. Extraction is lazy and cached per column, so tables
// with no sharded models pay nothing.
func appendedVals(clone *Table, from int) func(col string) []float64 {
	cache := make(map[string][]float64)
	return func(col string) []float64 {
		if v, ok := cache[col]; ok {
			return v
		}
		c := clone.Column(col)
		var out []float64
		if c != nil && c.Type != table.String {
			out = make([]float64, 0, c.Len()-from)
			for i := from; i < c.Len(); i++ {
				out = append(out, c.Float(i))
			}
		}
		cache[col] = out
		return out
	}
}

// appendedStrs is appendedVals for string columns: it feeds the appended
// values of nominal attributes to the ledger's absorb entries (TOP-K
// sketches over string columns). Numeric columns yield nil here and their
// values through appendedVals instead.
func appendedStrs(clone *Table, from int) func(col string) []string {
	cache := make(map[string][]string)
	return func(col string) []string {
		if v, ok := cache[col]; ok {
			return v
		}
		c := clone.Column(col)
		var out []string
		if c != nil && c.Type == table.String {
			out = append(out, c.Strings[from:]...)
		}
		cache[col] = out
		return out
	}
}

// AppendTable appends every row of src to the registered table tbl (the
// bulk form of Append — e.g. a CSV micro-batch). The schemas must match
// exactly. It returns the number of rows appended.
func (e *Engine) AppendTable(tbl string, src *Table) (int, error) {
	if err := src.Validate(); err != nil {
		return 0, err
	}
	n := src.NumRows()
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	tb := e.Table(tbl)
	if tb == nil {
		return 0, fmt.Errorf("dbest: table %q is not registered", tbl)
	}
	clone := tb.Clone()
	if err := clone.AppendTable(src); err != nil {
		return 0, err
	}
	e.setTable(tbl, clone)
	e.ledger.AppendValues(tbl, n, appendedVals(clone, tb.NumRows()), appendedStrs(clone, tb.NumRows()))
	return n, nil
}

// Staleness is one model's drift report: rows ingested since its last
// train, the fraction of its training reservoir the new rows replaced, and
// the background refresher's history for it.
type Staleness = ingest.Staleness

// ModelStaleness reports the staleness ledger for every tracked model set,
// sorted by catalog key. Models loaded via LoadModels are tracked when they
// carry a spec (see LoadModels).
func (e *Engine) ModelStaleness() []Staleness { return e.ledger.Snapshot() }

// RefreshOptions tunes the background auto-refresher; see
// ingest.RefresherOptions for the defaults.
type RefreshOptions = ingest.RefresherOptions

// RefreshStats aggregates the background refresher's lifetime counters.
type RefreshStats = ingest.RefreshStats

// StartRefresher launches the background auto-refresher: a worker pool
// that periodically scans the staleness ledger and retrains models whose
// staleness score crosses the threshold, atomically swapping the new
// models into the catalog (the generation bump invalidates cached plans).
// opts may be nil for defaults. It fails if a refresher is already
// running.
func (e *Engine) StartRefresher(opts *RefreshOptions) error {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	if e.refresher != nil {
		return errors.New("dbest: refresher already running")
	}
	r := ingest.NewRefresher(e.ledger, opts)
	r.Start()
	e.refresher = r
	return nil
}

// StopRefresher cancels any in-flight retrains and waits for the
// refresher to shut down. It is a no-op if none is running; cumulative
// refresh counters survive into RefreshStats.
func (e *Engine) StopRefresher() {
	e.refMu.Lock()
	r := e.refresher
	e.refresher = nil
	e.refMu.Unlock()
	if r == nil {
		return
	}
	r.Stop()
	st := r.Stats()
	e.refMu.Lock()
	e.refStats = st
	e.refMu.Unlock()
}

// RefreshNow asks a running refresher to scan the ledger immediately
// instead of waiting for its next tick; the next periodic scan follows one
// Interval after the requested one. It never blocks.
func (e *Engine) RefreshNow() {
	e.refMu.Lock()
	r := e.refresher
	e.refMu.Unlock()
	if r != nil {
		r.Kick()
	}
}

// RefreshStats snapshots the background refresher's counters. After a
// StopRefresher it reports the stopped refresher's final counters with
// Running false.
func (e *Engine) RefreshStats() RefreshStats {
	e.refMu.Lock()
	r := e.refresher
	last := e.refStats
	e.refMu.Unlock()
	if r != nil {
		return r.Stats()
	}
	last.Running = false
	last.TrackedModels = e.ledger.Len()
	return last
}

// track registers a model set of any kind with the staleness ledger — what
// a sharded build and a catalog load, which meet every kind, go through. A
// sketch absorbs appended values in place, a shard member accrues only the
// rows landing in its range, and everything else is a whole-model entry:
// that includes a sharded build that collapsed to one plain set, whose
// retrain re-executes the spec at the requested K, so a refresh re-shards
// once the column's values support distinct cuts. baseRows is the watched
// tables' row count the set was built from.
func (e *Engine) track(ms *core.ModelSet, spec *ModelSpec, baseRows int) {
	switch {
	case ms.Sketch != nil:
		e.registerAbsorb(ms, spec, baseRows)
	case ms.Shards > 1:
		e.trackShard(ms, spec, baseRows)
	default:
		e.trackModel(ms, spec, baseRows)
	}
}

// liveRows sums the current row counts of the named registered tables.
func (e *Engine) liveRows(tables []string) int {
	n := 0
	for _, t := range tables {
		if tb := e.Table(t); tb != nil {
			n += tb.NumRows()
		}
	}
	return n
}

// trackModel registers a freshly trained model set with the staleness
// ledger; the spec names the tables to watch and is what a retrain
// re-executes. Models trained from a single uniform reservoir (one base
// table, no GROUP BY, no nominal split) maintain an exact mirror of the
// training sampler — the spec's capacity and seed, fast-forwarded over the
// base rows — so appended rows continue the training sample stream and
// FracReplaced reports real sample drift. Join, GROUP BY and nominal models
// sample per-group/per-value streams that a single mirror cannot represent,
// so they track ingested-row fractions only. Rows appended while the training
// ran are credited as already-ingested (curRows vs baseRows) instead of
// being silently dropped by the ledger reset. The registration runs under
// appendMu so the live row count and the Register are atomic with respect
// to concurrent Appends — otherwise an append landing between the two
// would be double-counted (curRows already has it, ledger.Append adds it
// again) or lost (notified on the entry Register is about to replace).
func (e *Engine) trackModel(ms *core.ModelSet, spec *ModelSpec, baseRows int) {
	tables := spec.watchTables()
	resCap := 0
	if len(tables) == 1 && ms.GroupBy == "" && ms.NominalBy == "" {
		resCap = core.DefaultSampleSize
		if spec.SampleSize > 0 {
			resCap = spec.SampleSize
		}
	}
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	curRows := e.liveRows(tables)
	if curRows < baseRows {
		curRows = baseRows
	}
	e.ledger.Register(ms.Key(), tables, baseRows, curRows, resCap, spec.Seed, e.specRetrain(spec))
}
