package ingest

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// RefresherOptions tunes the background auto-refresh loop. The zero value
// (or nil) scans every 2 s, refreshes models whose staleness score reaches
// 0.1 after at least 1 new row, and retrains one model at a time.
type RefresherOptions struct {
	// Interval is how often the ledger is scanned for stale models.
	// Default 2 s.
	Interval time.Duration
	// Threshold is the staleness score (max of ingested-row fraction and
	// reservoir-replaced fraction) at which a model is rebuilt. Default 0.1.
	Threshold float64
	// MinRows is the minimum number of ingested rows before a model is
	// considered, so a tiny table cannot thrash retraining on every row.
	// Default 1.
	MinRows int
	// Workers bounds concurrent retrains. Default 1: refresh steals as
	// little CPU from the query path as possible.
	Workers int
}

func (o *RefresherOptions) withDefaults() RefresherOptions {
	out := RefresherOptions{Interval: 2 * time.Second, Threshold: 0.1, MinRows: 1, Workers: 1}
	if o == nil {
		return out
	}
	if o.Interval > 0 {
		out.Interval = o.Interval
	}
	if o.Threshold > 0 {
		out.Threshold = o.Threshold
	}
	if o.MinRows > 0 {
		out.MinRows = o.MinRows
	}
	if o.Workers > 0 {
		out.Workers = o.Workers
	}
	return out
}

// RefreshStats aggregates the refresher's lifetime counters. The JSON names
// are the ones /stats serves; the two durations are left out of the encoding
// because /stats reports them in microseconds under its own names.
type RefreshStats struct {
	Running       bool          `json:"refresh_running"`              // a refresher is currently started
	Scans         uint64        `json:"refresh_scans"`                // ledger scans performed
	Refreshes     uint64        `json:"refreshes"`                    // successful model rebuilds
	Failures      uint64        `json:"refresh_failures"`             // failed rebuild attempts
	LastError     string        `json:"refresh_last_error,omitempty"` // most recent rebuild error, if any
	TotalRetrain  time.Duration `json:"-"`
	LastRetrain   time.Duration `json:"-"`
	TrackedModels int           `json:"tracked_models"`
}

// Refresher watches a Ledger in the background and retrains models whose
// staleness crosses the threshold, through the RetrainFunc each model was
// registered with. Retrains run on a bounded worker pool so refresh load
// never exceeds the configured concurrency; the query path is never
// blocked — readers keep answering from the current catalog until the
// retrain closure atomically swaps the new models in.
type Refresher struct {
	ledger *Ledger
	opts   RefresherOptions

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	kick   chan struct{}

	scans        atomic.Uint64
	refreshes    atomic.Uint64
	failures     atomic.Uint64
	totalRetrain atomic.Int64 // nanoseconds
	lastRetrain  atomic.Int64 // nanoseconds
	lastErr      atomic.Value // string
}

// NewRefresher creates a refresher over l. opts may be nil. Call Start to
// begin scanning and Stop to shut down.
func NewRefresher(l *Ledger, opts *RefresherOptions) *Refresher {
	ctx, cancel := context.WithCancel(context.Background())
	return &Refresher{
		ledger: l,
		opts:   opts.withDefaults(),
		ctx:    ctx,
		cancel: cancel,
		kick:   make(chan struct{}, 1),
	}
}

// Start launches the scan loop and worker pool. It returns immediately.
func (r *Refresher) Start() {
	work := make(chan claimed)
	for i := 0; i < r.opts.Workers; i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for c := range work {
				r.refreshOne(c)
			}
		}()
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(work)
		tick := time.NewTicker(r.opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-r.ctx.Done():
				return
			case <-tick.C:
			case <-r.kick:
				// A requested scan restarts the interval: the next periodic
				// scan is one Interval after this one, wherever the ticker's
				// own phase stood. A caller that kicks, sees the ledger idle
				// and then appends a bulk load therefore has the load's first
				// Interval to itself, instead of a tick due at an arbitrary
				// moment retraining over however much of it has landed.
				tick.Reset(r.opts.Interval)
			}
			r.scans.Add(1)
			for _, c := range r.ledger.claim(r.opts.Threshold, r.opts.MinRows) {
				select {
				case work <- c:
				case <-r.ctx.Done():
					// Shutting down mid-dispatch: release the claim so a
					// future refresher can pick the model up again.
					r.ledger.release(c.key)
					return
				}
			}
		}
	}()
}

// Kick triggers an immediate ledger scan without waiting for the next
// tick, and restarts the interval from that scan. It never blocks; a scan
// already pending absorbs the kick.
func (r *Refresher) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Stop cancels in-flight retrains (their ctx is canceled) and waits for
// the scan loop and workers to exit. A stopped refresher cannot be
// restarted; create a new one.
func (r *Refresher) Stop() {
	r.cancel()
	r.wg.Wait()
}

func (r *Refresher) refreshOne(c claimed) {
	t0 := time.Now()
	err := c.retrain(r.ctx)
	d := time.Since(t0)
	if err != nil && r.ctx.Err() != nil {
		// Shutdown canceled the retrain mid-flight: this is not a model
		// failure — release the claim without recording an attempt so the
		// model stays due (forced bit and all) for the next refresher.
		r.ledger.release(c.key)
		return
	}
	r.ledger.finish(c.key, d, err)
	r.totalRetrain.Add(int64(d))
	r.lastRetrain.Store(int64(d))
	if err != nil {
		r.failures.Add(1)
		r.lastErr.Store(err.Error())
		return
	}
	r.refreshes.Add(1)
}

// Stats snapshots the refresher's counters.
func (r *Refresher) Stats() RefreshStats {
	st := RefreshStats{
		Running:       r.ctx.Err() == nil,
		Scans:         r.scans.Load(),
		Refreshes:     r.refreshes.Load(),
		Failures:      r.failures.Load(),
		TotalRetrain:  time.Duration(r.totalRetrain.Load()),
		LastRetrain:   time.Duration(r.lastRetrain.Load()),
		TrackedModels: r.ledger.Len(),
	}
	if e, ok := r.lastErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}
