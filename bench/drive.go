package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The load generators. Query clients are closed-loop: a client sends its
// next request when the previous one returns, so a slower system receives
// less load. They all run in this one process, W = min(nproc, 4) of them,
// and over HTTP they share the cores with the server. The appender of a
// paced workload is open-loop: batches are due on a fixed schedule, each is
// timed from its due time, and how late the generator ran is reported.

const (
	appendRate     = 100 // paced batches per second
	stalenessEvery = 100 * time.Millisecond
	scrapeEvery    = time.Second
)

// windowOpts describes one window of load.
type windowOpts struct {
	dur     time.Duration
	clients int
	phase   int  // generator phase, so windows do not replay each other
	traced  bool // issue queries as their staged, spanned calls
	side    bool // run the workload's side load: paced appender and staleness sampler, or the HTTP scraper
}

// windowResult is everything one window measured.
type windowResult struct {
	elapsed   time.Duration
	lat       []float64 // query latencies, µs
	appendLat []float64 // append latencies, µs (from the due time when paced)
	queries   tally
	appends   tally
	failure   string // the first failed operation, for the report
	spans     []span
	counters  counters // deltas over the window

	lateMaxMs    float64   // paced appender: worst lateness of the generator
	staleness    []float64 // worst model staleness score, sampled
	retrainMs    []float64 // durations of the retrains seen finishing
	scrapeStats  []float64 // GET /stats, µs
	scrapeModels []float64 // GET /models, µs
	bytesOut     int64     // response bytes read (HTTP)

	mallocs, allocBytes uint64 // process-wide, over the window
	gcCycles            uint32
	gcPause             time.Duration
	heapMB              float64
	clientCPU           time.Duration // this process
	serverCPU           time.Duration // the dbest-serve subprocess
	serverRSSMB         float64
}

// clientOut is one client's private record of a window.
type clientOut struct {
	lat, appendLat []float64
	queries        tally
	appends        tally
	failure        string
	bytesOut       int64
	tr             *spanBuf
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWindow drives the workload for opts.dur and gathers what it measured.
func (e *env) runWindow(ctx context.Context, opts windowOpts) (*windowResult, error) {
	res := &windowResult{}
	before, err := e.targets[0].counters()
	if err != nil {
		return nil, fmt.Errorf("read counters: %w", err)
	}
	var srvCPU0 time.Duration
	if e.srv != nil {
		if srvCPU0, _, err = e.srv.procStats(); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()

	start := time.Now()
	deadline := start.Add(opts.dur)
	outs := make([]clientOut, opts.clients)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.client(ctx, i, opts, start, deadline, &outs[i])
		}(i)
	}
	var side clientOut
	if opts.side && e.w.paced {
		wg.Add(2)
		go func() {
			defer wg.Done()
			e.appender(ctx, opts, start, deadline, &side, res)
		}()
		go func() {
			defer wg.Done()
			e.watchStaleness(ctx, deadline, res)
		}()
	}
	if opts.side && e.w.http {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.scrape(ctx, deadline, res)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)

	res.clientCPU = selfCPU() - cpu0
	runtime.ReadMemStats(&m1)
	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.gcCycles, res.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)
	res.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	if e.srv != nil {
		cpu, rss, err := e.srv.procStats()
		if err != nil {
			return nil, err
		}
		res.serverCPU, res.serverRSSMB = cpu-srvCPU0, rss
	}
	after, err := e.targets[0].counters()
	if err != nil {
		return nil, fmt.Errorf("read counters: %w", err)
	}
	res.counters = after.minus(before)

	for _, o := range append(outs, side) {
		res.lat = append(res.lat, o.lat...)
		res.appendLat = append(res.appendLat, o.appendLat...)
		res.queries.add(o.queries)
		res.appends.add(o.appends)
		res.bytesOut += o.bytesOut
		if res.failure == "" {
			res.failure = o.failure
		}
		if o.tr != nil {
			res.spans = append(res.spans, o.tr.spans...)
		}
	}
	return res, ctx.Err()
}

// client is closed-loop client i: its operation sequence is a pure function
// of (seed, i, phase).
func (e *env) client(ctx context.Context, i int, opts windowOpts, start, deadline time.Time, out *clientOut) {
	g := newGenerator(e.cfg.seed, i, opts.phase, e.w.mix, e.dom, e.batches)
	tgt := e.targets[i]
	out.lat = make([]float64, 0, 1<<20)
	if opts.traced {
		out.tr = newSpanBuf(start)
	}
	req := uint64(i+1) << 40 // request ids are unique across clients
	for ctx.Err() == nil {
		q := g.next()
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		if q.kind == kindAppend {
			err := tgt.ingest(q.rows)
			t1 := time.Now()
			out.appends.record(err == nil)
			out.appendLat = append(out.appendLat, float64(t1.Sub(t0))/1e3)
			if err != nil && out.failure == "" {
				out.failure = fmt.Sprintf("append of %d rows: %v", len(q.rows), err)
			}
			if opts.traced {
				req++
				out.tr.add(req, 1, 0, spanAppend, uint8(q.class), t0, t1)
			}
			continue
		}
		var (
			a   answer
			err error
		)
		if opts.traced {
			req++
			a, err = tgt.queryTraced(q, req, out.tr)
		} else {
			a, err = tgt.query(q)
		}
		d := time.Since(t0)
		ok := validAnswer(q, a, err)
		out.queries.record(ok)
		out.bytesOut += int64(a.bytes)
		if ok {
			out.lat = append(out.lat, float64(d)/1e3)
		} else if out.failure == "" {
			out.failure = fmt.Sprintf("%q: %+v, %v", q.sql, a, err)
		}
	}
}

// appender is the open-loop appender of a paced workload: batch k is due at
// start + k/appendRate and is timed from then, whenever it really left.
func (e *env) appender(ctx context.Context, opts windowOpts, start, deadline time.Time, out *clientOut, res *windowResult) {
	tgt := &engineTarget{eng: e.eng}
	if opts.traced {
		out.tr = newSpanBuf(start)
	}
	for k := 0; ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * time.Second / appendRate)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		t0 := time.Now()
		if late := float64(t0.Sub(due)) / 1e6; late > res.lateMaxMs {
			res.lateMaxMs = late
		}
		err := tgt.ingest(e.batches[k%len(e.batches)])
		t1 := time.Now()
		out.appends.record(err == nil)
		out.appendLat = append(out.appendLat, float64(t1.Sub(due))/1e3)
		if err != nil && out.failure == "" {
			out.failure = fmt.Sprintf("paced append %d: %v", k, err)
		}
		if opts.traced {
			out.tr.add(uint64(k+1), 1, 0, spanAppend, clsIngest, t0, t1)
		}
	}
}

// watchStaleness samples the worst model staleness score, and the duration
// of every retrain it sees finish.
func (e *env) watchStaleness(ctx context.Context, deadline time.Time, res *windowResult) {
	seen := map[string]uint64{}
	for _, s := range e.eng.ModelStaleness() {
		seen[s.Key] = s.Refreshes
	}
	tick := time.NewTicker(stalenessEvery)
	defer tick.Stop()
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		worst := 0.0
		for _, s := range e.eng.ModelStaleness() {
			if s.Score > worst {
				worst = s.Score
			}
			if s.Refreshes > seen[s.Key] {
				seen[s.Key] = s.Refreshes
				res.retrainMs = append(res.retrainMs, float64(s.LastRetrain)/1e6)
			}
		}
		res.staleness = append(res.staleness, worst)
	}
}

// scrape is the dashboard's monitoring side: GET /stats and GET /models
// once a second on a connection of its own.
func (e *env) scrape(ctx context.Context, deadline time.Time, res *windowResult) {
	t := newHTTPTarget(e.srv.base)
	defer t.close()
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for time.Now().Before(deadline) {
		var stats counters
		t0 := time.Now()
		if _, err := t.roundTrip("/stats", nil, &stats); err == nil {
			res.scrapeStats = append(res.scrapeStats, float64(time.Since(t0))/1e3)
		}
		var models struct {
			Models []struct {
				Key string `json:"key"`
			} `json:"models"`
		}
		t0 = time.Now()
		if _, err := t.roundTrip("/models", nil, &models); err == nil {
			res.scrapeModels = append(res.scrapeModels, float64(time.Since(t0))/1e3)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// settle brings a paced workload to a state that depends on the seed alone
// before its accuracy is probed. When the appender stops, the models are
// whatever the refresher last trained, over however many rows had arrived
// by then — a race that differs run to run. So a last burst of batches, a
// fifth of the table, makes every model stale again, and the refresher is
// asked to scan and waited for: what the probe then reads is the
// refresher's own product over a table whose content and order are fixed
// by the seed.
func (e *env) settle(ctx context.Context) error {
	e.awaitRefresher(ctx)
	tgt := &engineTarget{eng: e.eng}
	for k, n := 0, e.liveTable().NumRows()/5/ingestBatch; k < n; k++ {
		if err := tgt.ingest(e.batches[k%len(e.batches)]); err != nil {
			return fmt.Errorf("settling burst: %w", err)
		}
	}
	e.awaitRefresher(ctx)
	return nil
}

// awaitRefresher asks the refresher for a scan and waits, for a bounded
// time, until no model is retraining on two polls in a row.
func (e *env) awaitRefresher(ctx context.Context) {
	idle := 0
	for deadline := time.Now().Add(20 * time.Second); idle < 2 && time.Now().Before(deadline) && ctx.Err() == nil; {
		e.eng.RefreshNow()
		time.Sleep(100 * time.Millisecond)
		idle++
		for _, s := range e.eng.ModelStaleness() {
			if s.Refreshing {
				idle = 0
			}
		}
	}
}
