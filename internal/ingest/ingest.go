// Package ingest is DBEst's streaming-ingestion and model-staleness
// subsystem: the lifecycle layer that lets data keep arriving after models
// are trained. The paper's engine trains once over a reservoir sample and
// discards the data (§3); this package closes the loop for long-running
// deployments — appended rows feed a maintained per-model reservoir, a
// staleness ledger measures how far each model has drifted from the live
// table (rows ingested since the last train, fraction of the reservoir the
// new rows replaced), and a background refresher retrains models whose
// staleness crosses a threshold, swapping the fresh models into the
// catalog so plan caches self-invalidate.
//
// The package deliberately knows nothing about the engine: models are
// identified by their catalog key and retrained through an opaque
// RetrainFunc closure, so the dependency points engine → ingest only.
package ingest

import (
	"context"
	"sort"
	"sync"
	"time"

	"dbest/internal/sample"
	"dbest/internal/shard"
)

// RetrainFunc rebuilds one model set from the current base data. It is
// registered by the engine alongside each trained model and invoked by the
// background refresher; a canceled ctx should abort the retrain.
type RetrainFunc func(ctx context.Context) error

// Ledger tracks, per trained model set, how stale the model is relative to
// the rows ingested since it was trained. It is safe for concurrent use.
//
// Append credits are batched: an append enqueues a pending credit under a
// tiny queue mutex and returns, instead of walking every entry under the
// ledger mutex inline on the ingest path. Pending credits are reconciled —
// drained and applied in order — when the queue fills, and before any read
// or mutation of the entry map, so every observer still sees a ledger that
// includes all appends that happened before its call.
type Ledger struct {
	mu      sync.Mutex
	entries map[string]*entry

	pendMu  sync.Mutex // alone on the append path; inside mu when reconcile drains
	pending []pendingAppend
}

// pendingAppend is one enqueued Append credit awaiting reconciliation.
type pendingAppend struct {
	tbl  string
	n    int
	vals func(col string) []float64
	strs func(col string) []string
}

// maxPending bounds the credit queue; the append that fills it reconciles
// inline, so a hot ingest stream without readers cannot grow the queue
// (and its captured vals closures, which pin table columns) unboundedly.
const maxPending = 64

// entry is the ledger's per-model state. The maintained reservoir mirrors
// the training sampler: it is seeded identically and fast-forwarded over
// the base rows, so offering appended row indices continues the training
// stream exactly (Reservoir state depends only on the offer sequence).
type entry struct {
	key    string
	tables []string // base tables whose appends feed this model

	res       *sample.Reservoir // nil for join models (no single base stream)
	resCap    int
	seed      int64
	baseRows  int  // watched-table rows at the last (re)train
	ingested  int  // rows appended since the last (re)train
	replaced  int  // reservoir slots replaced by appended rows
	forced    bool // base data wholesale-replaced; refresh regardless of score
	refreshed time.Time

	// Shard routing: a member of a sharded ensemble only accrues staleness
	// from appended rows whose xcol value lands in its range, so ingest
	// concentrated in one region of the domain dirties (and retrains) only
	// the owning shard. Edge shards are open-ended, matching the split.
	sharded          bool
	xcol             string
	shardIdx, shards int
	shardLo, shardHi float64

	// absorb, when set, marks a sketch entry: appended values of xcol are
	// folded into the sketch in place instead of accruing staleness, so the
	// model stays fresh with zero retrains. Only a wholesale base-data
	// replacement (Invalidate's forced bit) makes the refresher rebuild it.
	absorb func(floats []float64, strs []string)

	retrain RetrainFunc

	// Refresh bookkeeping. refreshing guards against double-dispatch while
	// a retrain is in flight; failed/failedAt remember the ingested count
	// at the last failed attempt so a persistently failing model (e.g. its
	// table was dropped) is retried only when new rows arrive, not every
	// tick.
	refreshing  bool
	failed      bool
	failedAt    int
	refreshes   uint64
	failures    uint64
	lastErr     string
	lastRetrain time.Duration
}

// Staleness is one model's drift report — the unit of Engine.ModelStaleness
// and the /staleness endpoint.
type Staleness struct {
	// Key is the catalog key of the model set.
	Key string
	// Tables lists the base tables whose appends feed this model (two for
	// join models).
	Tables []string
	// BaseRows is how many base rows the model was trained over (summed
	// across tables for joins); IngestedRows counts rows appended since.
	BaseRows     int
	IngestedRows int
	// ReservoirSize and ReservoirReplaced describe the maintained training
	// reservoir: of ReservoirSize sample slots, ReservoirReplaced were
	// overwritten by appended rows — i.e. the fraction of the training
	// sample that would differ if the model were rebuilt now.
	ReservoirSize     int
	ReservoirReplaced int
	// FracIngested is IngestedRows/BaseRows; FracReplaced is
	// ReservoirReplaced/ReservoirSize; Score is the staleness the refresher
	// thresholds on: max of the two, or 1 when the base data was replaced
	// wholesale (table re-registration).
	FracIngested float64
	FracReplaced float64
	Score        float64
	// Shard and Shards identify a member of a sharded ensemble (Shards is 0
	// for unsharded models): its staleness counts only the appended rows
	// routed into its x-range.
	Shard  int
	Shards int
	// LastTrained is when the model was last (re)built; Refreshing reports
	// an in-flight background retrain.
	LastTrained time.Time
	Refreshing  bool
	// Refreshes / Failures / LastError / LastRetrain report the background
	// refresher's history for this model.
	Refreshes   uint64
	Failures    uint64
	LastError   string
	LastRetrain time.Duration
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{entries: make(map[string]*entry)}
}

// Register records a freshly trained model set. tables are the base tables
// whose appends should count against it; baseRows is the total row count
// the model was trained over, while curRows is the tables' live row count
// at registration — any gap is rows appended while the training ran, which
// must count as already-ingested or they would vanish from the ledger.
// resCap and seed describe the training reservoir, which the ledger
// re-derives and fast-forwards so subsequent appends continue the training
// sample stream (pass resCap 0 to skip reservoir maintenance, e.g. for
// join, GROUP BY and nominal models whose samplers are not a single
// uniform stream). Re-registering a key resets its staleness but keeps its
// cumulative refresh history.
func (l *Ledger) Register(key string, tables []string, baseRows, curRows, resCap int, seed int64, retrain RetrainFunc) {
	l.register(&entry{
		key:     key,
		tables:  append([]string(nil), tables...),
		resCap:  resCap,
		seed:    seed,
		retrain: retrain,
	}, baseRows, curRows)
}

// RegisterShard records one freshly trained member of a sharded ensemble.
// It is Register plus the shard's routing metadata: xcol is the split
// column and [lo, hi) the shard's planned range (shardIdx 0 extends to
// -inf, the last shard to +inf), so Append credits this entry only with
// rows landing in the range. The maintained reservoir mirrors the shard's
// training sampler, whose stream is the in-range rows in table order; seed
// must be the shard-derived training seed.
func (l *Ledger) RegisterShard(key string, tables []string, baseRows, curRows, resCap int, seed int64,
	xcol string, shardIdx, shards int, lo, hi float64, retrain RetrainFunc) {
	l.register(&entry{
		key:      key,
		tables:   append([]string(nil), tables...),
		resCap:   resCap,
		seed:     seed,
		retrain:  retrain,
		sharded:  true,
		xcol:     xcol,
		shardIdx: shardIdx, shards: shards,
		shardLo: lo, shardHi: hi,
	}, baseRows, curRows)
}

// register finishes entry construction shared by Register and
// RegisterShard: derive and fast-forward the reservoir mirror, credit rows
// that arrived while the training ran, and carry the refresh history of a
// replaced entry over.
func (l *Ledger) register(e *entry, baseRows, curRows int) {
	// Apply credits enqueued before this registration to the entry being
	// replaced: curRows already counts those rows, so letting them leak onto
	// the fresh entry would double-count them as post-train ingest. The
	// engine's append mutex orders registration against concurrent appends.
	l.reconcile()
	if e.resCap > 0 && len(e.tables) == 1 {
		e.res = sample.NewReservoir(e.resCap, e.seed)
		e.res.Advance(baseRows)
	}
	e.baseRows = baseRows
	e.refreshed = time.Now()
	if curRows > baseRows {
		e.ingested = curRows - baseRows
		if e.res != nil {
			e.replaced = clampReplaced(e.res.Advance(e.ingested), e.resCap)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if old := l.entries[e.key]; old != nil {
		e.refreshes, e.failures = old.refreshes, old.failures
		e.lastErr, e.lastRetrain = old.lastErr, old.lastRetrain
		e.refreshing = old.refreshing
	}
	l.entries[e.key] = e
}

// RegisterAbsorb records a sketch registered over column col of the single
// base table tables[0]. Unlike model entries, an absorb entry never goes
// stale from appends: every appended value of col is handed to absorb
// (numeric columns through floats, string columns through strs), which
// folds it into the sketch in place. retrain rebuilds the sketch from
// scratch and is invoked by the refresher only when the base data is
// replaced wholesale (Invalidate); ordinary ingest triggers zero retrains.
func (l *Ledger) RegisterAbsorb(key string, tables []string, col string, baseRows int,
	absorb func(floats []float64, strs []string), retrain RetrainFunc) {
	l.register(&entry{
		key:     key,
		tables:  append([]string(nil), tables...),
		xcol:    col,
		absorb:  absorb,
		retrain: retrain,
	}, baseRows, baseRows)
}

// Drop forgets a model's staleness state.
func (l *Ledger) Drop(key string) {
	l.reconcile()
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.entries, key)
}

// Clear forgets all staleness state (the catalog was replaced wholesale,
// e.g. LoadModels). Pending credits are discarded too — they belong to
// models that no longer exist.
func (l *Ledger) Clear() {
	l.pendMu.Lock()
	l.pending = nil
	l.pendMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = make(map[string]*entry)
}

// AppendValues records n rows appended to table tbl: every model fed by tbl
// gains n ingested rows, and single-table models advance their maintained
// reservoir over the new row indices, counting how many sample slots the
// appended region claimed. vals, when non-nil, returns the appended rows'
// values for a column (nil for unknown or non-numeric columns); members of
// sharded ensembles use it to credit only the rows routed into their
// range. A nil vals — or an unresolvable split column — credits every
// entry with the full n, which errs toward retraining too eagerly rather
// than serving a silently stale shard. strs is the same accessor for
// string-column values, which absorb entries over string columns (TOP-K
// sketches on nominal attributes) consume.
//
// The credit is enqueued, not applied inline: the ingest hot path touches
// only the queue mutex, and the O(entries) walk happens at the next
// reconcile point (a full queue, or any ledger read). Reservoir advancement
// is commutative in row counts, so deferred application yields the same
// state as inline application did.
func (l *Ledger) AppendValues(tbl string, n int, vals func(col string) []float64, strs func(col string) []string) {
	if n <= 0 {
		return
	}
	l.pendMu.Lock()
	l.pending = append(l.pending, pendingAppend{tbl: tbl, n: n, vals: vals, strs: strs})
	full := len(l.pending) >= maxPending
	l.pendMu.Unlock()
	if full {
		l.reconcile()
	}
}

// Sync applies every pending append credit now. The sketch query path calls
// it before answering, so an estimate reflects all appends that completed
// before the query began even when the credit queue has not filled.
func (l *Ledger) Sync() { l.reconcile() }

// reconcile drains the pending-credit queue and applies each credit in
// enqueue order. Every path that reads or mutates the entry map calls it
// first, so batching is invisible to observers. The queue is drained under
// l.mu: a caller that finds it empty because another goroutine took the
// batch a moment ago waits here until that batch is applied, rather than
// reading entries the credits have not reached yet.
func (l *Ledger) reconcile() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pendMu.Lock()
	batch := l.pending
	l.pending = nil
	l.pendMu.Unlock()
	for _, p := range batch {
		l.applyLocked(p)
	}
}

// applyLocked credits one append to every watching entry. Caller holds l.mu.
func (l *Ledger) applyLocked(p pendingAppend) {
	for _, e := range l.entries {
		if !e.watches(p.tbl) {
			continue
		}
		if e.absorb != nil {
			// Sketch entry: fold the appended values in instead of accruing
			// staleness. Without accessors there is nothing to fold — that
			// only happens off the engine path (direct ledger tests).
			var fs []float64
			var ss []string
			if p.vals != nil {
				fs = p.vals(e.xcol)
			}
			if len(fs) == 0 && p.strs != nil {
				ss = p.strs(e.xcol)
			}
			if len(fs) > 0 || len(ss) > 0 {
				e.absorb(fs, ss)
			}
			continue
		}
		credit := p.n
		if e.sharded && p.vals != nil {
			if xs := p.vals(e.xcol); xs != nil {
				credit = 0
				for _, x := range xs {
					if shard.Owns(e.shardIdx, e.shards, e.shardLo, e.shardHi, x) {
						credit++
					}
				}
			}
		}
		if credit == 0 {
			continue
		}
		e.ingested += credit
		if e.res != nil {
			e.replaced = clampReplaced(e.replaced+e.res.Advance(credit), e.resCap)
		}
	}
}

// clampReplaced caps the replaced-slot counter at the reservoir capacity:
// Advance counts admissions, and a later admission can overwrite a slot an
// earlier appended row already claimed, but "fraction of the training
// sample replaced" can never exceed the whole sample.
func clampReplaced(n, cap int) int {
	if n > cap {
		return cap
	}
	return n
}

// Invalidate marks every model fed by tbl as maximally stale — the base
// data was replaced out from under it (table re-registration) — so the
// refresher rebuilds it on its next scan regardless of thresholds. A
// failure backoff is cleared: the data is new, so a retry is warranted.
// It returns how many models were marked.
func (l *Ledger) Invalidate(tbl string) int {
	l.reconcile()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		if e.watches(tbl) {
			e.forced = true
			e.failed = false
			n++
		}
	}
	return n
}

func (e *entry) watches(tbl string) bool {
	for _, t := range e.tables {
		if t == tbl {
			return true
		}
	}
	return false
}

// staleness builds the drift report for e. Caller holds l.mu.
func (e *entry) staleness() Staleness {
	s := Staleness{
		Key:               e.key,
		Tables:            append([]string(nil), e.tables...),
		BaseRows:          e.baseRows,
		IngestedRows:      e.ingested,
		ReservoirReplaced: e.replaced,
		LastTrained:       e.refreshed,
		Refreshing:        e.refreshing,
		Refreshes:         e.refreshes,
		Failures:          e.failures,
		LastError:         e.lastErr,
		LastRetrain:       e.lastRetrain,
	}
	if e.sharded {
		s.Shard, s.Shards = e.shardIdx, e.shards
	}
	if e.res != nil {
		s.ReservoirSize = e.resCap
		if e.resCap > 0 {
			s.FracReplaced = float64(e.replaced) / float64(e.resCap)
		}
	}
	if e.baseRows > 0 {
		s.FracIngested = float64(e.ingested) / float64(e.baseRows)
	} else if e.ingested > 0 {
		s.FracIngested = 1
	}
	s.Score = s.FracIngested
	if s.FracReplaced > s.Score {
		s.Score = s.FracReplaced
	}
	if e.forced {
		s.Score = 1
	}
	return s
}

// Snapshot reports every tracked model's staleness, sorted by key.
func (l *Ledger) Snapshot() []Staleness {
	l.reconcile()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Staleness, 0, len(l.entries))
	for _, e := range l.entries {
		out = append(out, e.staleness())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len reports how many models the ledger tracks.
func (l *Ledger) Len() int {
	l.reconcile()
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// claim selects models due for a refresh — score at or above threshold
// with at least minRows new rows, or force-marked — and marks them
// in-flight so concurrent scans cannot dispatch them twice. The forced bit
// is NOT cleared here: it survives a failed or canceled attempt and only a
// successful retrain (or re-registration) clears it. It returns the
// claimed keys with their retrain closures.
func (l *Ledger) claim(threshold float64, minRows int) []claimed {
	l.reconcile()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []claimed
	for _, e := range l.entries {
		if e.refreshing || e.retrain == nil {
			continue
		}
		due := e.forced
		if !due {
			s := e.staleness()
			due = s.Score >= threshold && e.ingested >= minRows
		}
		// After a failed attempt, wait for new rows before retrying so a
		// dead table does not mean a retrain per tick forever.
		if e.failed && e.ingested <= e.failedAt {
			due = false
		}
		if !due {
			continue
		}
		e.refreshing = true
		out = append(out, claimed{key: e.key, retrain: e.retrain})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

type claimed struct {
	key     string
	retrain RetrainFunc
}

// finish records a completed refresh attempt. On success the entry has
// normally just been re-registered (the retrain closure re-trains through
// the engine, which calls Register); finish then stamps the metrics on the
// fresh entry. On failure the stale entry stays, with the error recorded
// and its current ingested count remembered as the retry backoff point.
func (l *Ledger) finish(key string, d time.Duration, err error) {
	l.reconcile()
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[key]
	if e == nil {
		return
	}
	e.refreshing = false
	e.lastRetrain = d
	if err != nil {
		e.failures++
		e.lastErr = err.Error()
		e.failed = true
		e.failedAt = e.ingested
		return
	}
	e.refreshes++
	e.lastErr = ""
	e.failed = false
	e.forced = false
}

// release abandons a claim without recording an attempt — the retrain was
// canceled by shutdown, not refuted by a failure. The entry keeps its
// forced bit and staleness, so the next refresher picks it up again.
func (l *Ledger) release(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.entries[key]; e != nil {
		e.refreshing = false
	}
}
