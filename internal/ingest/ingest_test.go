package ingest

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbest/internal/sample"
)

func noRetrain(context.Context) error { return nil }

func TestLedgerStalenessAccrual(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 1000, 1000, 100, 1, noRetrain)

	sts := l.Snapshot()
	if len(sts) != 1 {
		t.Fatalf("Snapshot len = %d, want 1", len(sts))
	}
	s := sts[0]
	if s.Score != 0 || s.IngestedRows != 0 || s.BaseRows != 1000 {
		t.Fatalf("fresh entry not clean: %+v", s)
	}

	l.AppendValues("t", 500, nil, nil)
	s = l.Snapshot()[0]
	if s.IngestedRows != 500 {
		t.Fatalf("IngestedRows = %d, want 500", s.IngestedRows)
	}
	if want := 0.5; s.FracIngested != want {
		t.Fatalf("FracIngested = %g, want %g", s.FracIngested, want)
	}
	if s.Score < 0.5 {
		t.Fatalf("Score = %g, want >= 0.5", s.Score)
	}
	// The maintained reservoir must mirror offering the whole stream.
	ref := sample.NewReservoir(100, 1)
	ref.Advance(1000)
	want := ref.Advance(500)
	if s.ReservoirReplaced != want {
		t.Fatalf("ReservoirReplaced = %d, want %d", s.ReservoirReplaced, want)
	}
}

func TestLedgerAppendOnlyFeedsWatchers(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"a"}, 100, 100, 10, 1, noRetrain)
	l.Register("m2", []string{"b"}, 100, 100, 10, 1, noRetrain)
	l.Register("j", []string{"a", "b"}, 200, 200, 0, 1, noRetrain)

	l.AppendValues("a", 50, nil, nil)
	for _, s := range l.Snapshot() {
		switch s.Key {
		case "m1":
			if s.IngestedRows != 50 {
				t.Fatalf("m1 ingested %d, want 50", s.IngestedRows)
			}
		case "m2":
			if s.IngestedRows != 0 {
				t.Fatalf("m2 ingested %d, want 0", s.IngestedRows)
			}
		case "j":
			if s.IngestedRows != 50 {
				t.Fatalf("join ingested %d, want 50", s.IngestedRows)
			}
			if s.ReservoirSize != 0 {
				t.Fatalf("join should not maintain a reservoir, got size %d", s.ReservoirSize)
			}
		}
	}
}

func TestLedgerInvalidateForcesScore(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 1000, 1000, 100, 1, noRetrain)
	l.Invalidate("t")
	if s := l.Snapshot()[0]; s.Score != 1 {
		t.Fatalf("Score after Invalidate = %g, want 1", s.Score)
	}
	// claim picks it up even though nothing was ingested.
	cl := l.claim(0.5, 10)
	if len(cl) != 1 || cl[0].key != "m1" {
		t.Fatalf("claim = %v, want [m1]", cl)
	}
	// ... and marks it in-flight so a second scan cannot double-dispatch.
	if cl2 := l.claim(0.5, 10); len(cl2) != 0 {
		t.Fatalf("second claim dispatched %d entries, want 0", len(cl2))
	}
}

func TestLedgerClaimThresholds(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 1000, 1000, 100, 1, noRetrain)
	l.AppendValues("t", 40, nil, nil) // 4% ingested
	if cl := l.claim(0.5, 1); len(cl) != 0 {
		t.Fatalf("claimed below threshold: %v", cl)
	}
	l.AppendValues("t", 960, nil, nil) // 100% ingested
	if cl := l.claim(0.5, 1); len(cl) != 1 {
		t.Fatalf("claim = %v, want 1 entry", cl)
	}
}

func TestLedgerFailureBacksOffUntilNewRows(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 100, 100, 10, 1, noRetrain)
	l.AppendValues("t", 100, nil, nil)

	cl := l.claim(0.1, 1)
	if len(cl) != 1 {
		t.Fatalf("claim = %v, want 1 entry", cl)
	}
	l.finish("m1", time.Millisecond, errors.New("boom"))
	s := l.Snapshot()[0]
	if s.Failures != 1 || s.LastError != "boom" {
		t.Fatalf("failure not recorded: %+v", s)
	}
	// Same ingested count: no retry.
	if cl := l.claim(0.1, 1); len(cl) != 0 {
		t.Fatal("failed entry retried without new rows")
	}
	// New rows arrive: retried.
	l.AppendValues("t", 1, nil, nil)
	if cl := l.claim(0.1, 1); len(cl) != 1 {
		t.Fatal("failed entry not retried after new rows")
	}
}

func TestLedgerRegisterPreservesHistory(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 100, 100, 10, 1, noRetrain)
	l.AppendValues("t", 100, nil, nil)
	l.claim(0.1, 1)
	l.Register("m1", []string{"t"}, 200, 200, 10, 1, noRetrain) // the retrain re-registers
	l.finish("m1", 5*time.Millisecond, nil)

	s := l.Snapshot()[0]
	if s.Refreshes != 1 {
		t.Fatalf("Refreshes = %d, want 1", s.Refreshes)
	}
	if s.IngestedRows != 0 || s.BaseRows != 200 {
		t.Fatalf("staleness not reset by re-register: %+v", s)
	}
	if s.LastRetrain != 5*time.Millisecond {
		t.Fatalf("LastRetrain = %v", s.LastRetrain)
	}
}

func TestRefresherRetrainsStaleModels(t *testing.T) {
	l := NewLedger()
	var retrains atomic.Int32
	var mu sync.Mutex
	var register func()
	register = func() {
		l.Register("m1", []string{"t"}, 200, 200, 10, 1, func(ctx context.Context) error {
			retrains.Add(1)
			mu.Lock()
			register() // the engine's retrain path re-registers the entry
			mu.Unlock()
			return nil
		})
	}
	mu.Lock()
	register()
	mu.Unlock()

	r := NewRefresher(l, &RefresherOptions{Interval: time.Hour, Threshold: 0.5, Workers: 2})
	r.Start()
	defer r.Stop()

	l.AppendValues("t", 150, nil, nil) // 75% stale
	r.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for retrains.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refresher never retrained the stale model")
		}
		time.Sleep(time.Millisecond)
		r.Kick()
	}
	// Wait for finish() so stats settle.
	for time.Now().Before(deadline) {
		if st := r.Stats(); st.Refreshes >= 1 {
			if st.Failures != 0 {
				t.Fatalf("unexpected failures: %+v", st)
			}
			if st.TrackedModels != 1 {
				t.Fatalf("TrackedModels = %d, want 1", st.TrackedModels)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("refresher stats never recorded the refresh")
}

// A kick restarts the scan interval: the periodic scan that was due shortly
// after it is put off to one full Interval later.
func TestKickRestartsInterval(t *testing.T) {
	const interval = 400 * time.Millisecond
	r := NewRefresher(NewLedger(), &RefresherOptions{Interval: interval})
	r.Start()
	defer r.Stop()

	time.Sleep(interval * 3 / 4) // the ticker's own tick is now interval/4 away
	r.Kick()
	kicked := time.Now()
	for r.Stats().Scans == 0 {
		if time.Since(kicked) > 5*time.Second {
			t.Fatal("kick never scanned")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(interval * 5 / 8)
	if late := time.Since(kicked); late > interval*7/8 {
		t.Skipf("box too contended to tell: woke %v after the kick", late)
	}
	if n := r.Stats().Scans; n != 1 {
		t.Fatalf("%d scans %v after the kick, want 1: the old tick still fired", n, time.Since(kicked))
	}
	for r.Stats().Scans < 2 {
		if time.Since(kicked) > 5*time.Second {
			t.Fatal("no periodic scan after the kick")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRefresherRecordsFailures(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 100, 100, 10, 1, func(ctx context.Context) error {
		return errors.New("table dropped")
	})
	r := NewRefresher(l, &RefresherOptions{Interval: time.Hour, Threshold: 0.1})
	r.Start()
	defer r.Stop()

	l.AppendValues("t", 100, nil, nil)
	r.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.Stats()
		if st.Failures >= 1 {
			if st.LastError != "table dropped" {
				t.Fatalf("LastError = %q", st.LastError)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refresher never recorded the failure")
		}
		time.Sleep(time.Millisecond)
	}
	if s := l.Snapshot()[0]; s.Failures != 1 || s.LastError != "table dropped" {
		t.Fatalf("ledger failure not recorded: %+v", s)
	}
}

func TestRefresherStopCancelsInFlight(t *testing.T) {
	l := NewLedger()
	started := make(chan struct{})
	l.Register("m1", []string{"t"}, 100, 100, 10, 1, func(ctx context.Context) error {
		close(started)
		<-ctx.Done() // a retrain that only ends when canceled
		return ctx.Err()
	})
	r := NewRefresher(l, &RefresherOptions{Interval: time.Hour, Threshold: 0.1})
	r.Start()
	l.AppendValues("t", 100, nil, nil)
	r.Kick()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("retrain never started")
	}
	done := make(chan struct{})
	go func() { r.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not cancel the in-flight retrain")
	}
	if r.Stats().Running {
		t.Fatal("Stats still reports Running after Stop")
	}
}

func TestLedgerDropAndClear(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 100, 100, 10, 1, noRetrain)
	l.Register("m2", []string{"t"}, 100, 100, 10, 1, noRetrain)
	l.Drop("m1")
	if l.Len() != 1 {
		t.Fatalf("Len = %d after Drop, want 1", l.Len())
	}
	l.Clear()
	if l.Len() != 0 {
		t.Fatalf("Len = %d after Clear, want 0", l.Len())
	}
}

// Rows appended while a (re)train ran must be credited as already-ingested
// at registration instead of vanishing with the ledger reset.
func TestRegisterCreditsRowsAppendedDuringTrain(t *testing.T) {
	l := NewLedger()
	// Trained over 1000 rows, but the table held 1300 by the time training
	// finished: 300 rows arrived mid-train.
	l.Register("m1", []string{"t"}, 1000, 1300, 100, 1, noRetrain)
	s := l.Snapshot()[0]
	if s.IngestedRows != 300 {
		t.Fatalf("IngestedRows = %d, want 300 (rows appended during train)", s.IngestedRows)
	}
	if s.FracIngested != 0.3 {
		t.Fatalf("FracIngested = %g, want 0.3", s.FracIngested)
	}
	// The maintained reservoir advanced over the mid-train rows too.
	ref := sample.NewReservoir(100, 1)
	ref.Advance(1000)
	if want := ref.Advance(300); s.ReservoirReplaced != want {
		t.Fatalf("ReservoirReplaced = %d, want %d", s.ReservoirReplaced, want)
	}
}

// A forced invalidation (table re-registered) must survive a failed
// retrain attempt: only success clears it.
func TestForcedSurvivesFailedRetrain(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 1000, 1000, 100, 1, noRetrain)
	l.Invalidate("t")

	cl := l.claim(0.5, 1)
	if len(cl) != 1 {
		t.Fatalf("claim = %v, want 1 entry", cl)
	}
	l.finish("m1", time.Millisecond, errors.New("transient"))
	if s := l.Snapshot()[0]; s.Score != 1 {
		t.Fatalf("Score = %g after failed forced retrain, want 1 (forced lost)", s.Score)
	}
	// The failure backoff applies: no immediate thrash...
	if cl := l.claim(0.5, 1); len(cl) != 0 {
		t.Fatal("failed forced entry retried without new rows")
	}
	// ...but new rows re-arm it, and success finally clears forced.
	l.AppendValues("t", 1, nil, nil)
	if cl := l.claim(0.5, 1); len(cl) != 1 {
		t.Fatal("failed forced entry not retried after new rows")
	}
	l.finish("m1", time.Millisecond, nil)
	if s := l.Snapshot()[0]; s.Score == 1 {
		t.Fatalf("forced not cleared by successful retrain: %+v", s)
	}
}

// A claim released by shutdown must not count as an attempt: the forced
// bit and staleness stay, and no failure is recorded.
func TestReleaseKeepsClaimPristine(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 1000, 1000, 100, 1, noRetrain)
	l.Invalidate("t")
	if cl := l.claim(0.5, 1); len(cl) != 1 {
		t.Fatal("claim failed")
	}
	l.release("m1")
	s := l.Snapshot()[0]
	if s.Refreshing || s.Failures != 0 || s.LastError != "" || s.Score != 1 {
		t.Fatalf("release mutated the entry: %+v", s)
	}
	// Immediately claimable again.
	if cl := l.claim(0.5, 1); len(cl) != 1 {
		t.Fatal("released entry not claimable")
	}
}

// FracReplaced is a fraction of the sample: heavy over-ingest must clamp
// at 1.0, not report 1.39 slots-worth of admissions.
func TestFracReplacedNeverExceedsOne(t *testing.T) {
	l := NewLedger()
	l.Register("m1", []string{"t"}, 10000, 10000, 1000, 1, noRetrain)
	for i := 0; i < 10; i++ {
		l.AppendValues("t", 10000, nil, nil) // 100k rows over a 10k-row base
	}
	s := l.Snapshot()[0]
	if s.FracReplaced > 1 || s.ReservoirReplaced > s.ReservoirSize {
		t.Fatalf("FracReplaced = %g (%d/%d), must not exceed 1",
			s.FracReplaced, s.ReservoirReplaced, s.ReservoirSize)
	}
	if s.FracReplaced < 0.5 {
		t.Fatalf("FracReplaced = %g after 10x over-ingest, want near 1", s.FracReplaced)
	}
	// Register's mid-train credit path clamps too.
	l.Register("m2", []string{"t"}, 10000, 200000, 1000, 1, noRetrain)
	if s := l.Snapshot()[1]; s.FracReplaced > 1 {
		t.Fatalf("Register credit FracReplaced = %g, must not exceed 1", s.FracReplaced)
	}
}

// TestAppendRoutesToOwningShard: appended rows credit only the shard whose
// x-range owns them, so ingest concentrated in one region dirties one
// shard. A nil column accessor (or an unresolvable column) falls back to
// crediting every shard — stale-eager, never stale-silent.
func TestAppendRoutesToOwningShard(t *testing.T) {
	l := NewLedger()
	// Three shards over x: (-inf,10), [10,20), [20,+inf).
	for i := 0; i < 3; i++ {
		l.RegisterShard("m@s"+string(rune('0'+i))+"/3", []string{"t"}, 100, 100, 50, 7,
			"x", i, 3, float64(i*10), float64((i+1)*10), nil)
	}
	vals := map[string][]float64{"x": {12, 15, 19, 5, 25}}
	l.AppendValues("t", 5, func(col string) []float64 { return vals[col] }, nil)
	got := map[int]int{}
	for _, st := range l.Snapshot() {
		if st.Shards != 3 {
			t.Fatalf("staleness %q missing shard metadata: %+v", st.Key, st)
		}
		got[st.Shard] = st.IngestedRows
	}
	if got[0] != 1 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("per-shard ingested = %v, want map[0:1 1:3 2:1]", got)
	}
	// Edge shards are open-ended: far-out values still have an owner.
	l.AppendValues("t", 2, func(col string) []float64 { return []float64{-1e9, 1e9} }, nil)
	got = map[int]int{}
	for _, st := range l.Snapshot() {
		got[st.Shard] = st.IngestedRows
	}
	if got[0] != 2 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("per-shard ingested = %v, want map[0:2 1:3 2:2]", got)
	}
	// Unresolvable column: every shard is credited.
	l.AppendValues("t", 4, func(col string) []float64 { return nil }, nil)
	for _, st := range l.Snapshot() {
		if st.IngestedRows < 4 {
			t.Fatalf("nil column accessor must credit all shards: %+v", st)
		}
	}
}

// TestClaimOnlyDirtyShard: with per-shard routing, claim must select only
// the shard whose staleness crossed the threshold.
func TestClaimOnlyDirtyShard(t *testing.T) {
	l := NewLedger()
	retrained := make(map[string]int)
	for i := 0; i < 4; i++ {
		key := "m@s" + string(rune('0'+i)) + "/4"
		l.RegisterShard(key, []string{"t"}, 1000, 1000, 100, 7,
			"x", i, 4, float64(i*10), float64((i+1)*10), func(ctx context.Context) error {
				retrained[key]++
				return nil
			})
	}
	// 500 rows, all landing in shard 1's range.
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 15
	}
	l.AppendValues("t", 500, func(col string) []float64 { return xs }, nil)
	claims := l.claim(0.1, 1)
	if len(claims) != 1 || claims[0].key != "m@s1/4" {
		keys := make([]string, len(claims))
		for i, c := range claims {
			keys[i] = c.key
		}
		t.Fatalf("claimed %v, want only the dirty shard m@s1/4", keys)
	}
	// The claim is exclusive: a second scan must not hand the same shard
	// out again while the retrain is in flight.
	if again := l.claim(0.1, 1); len(again) != 0 {
		t.Fatalf("double-claimed %d shards while refreshing", len(again))
	}
}

// A Sync that finds the credit queue empty because another goroutine has
// just taken the batch must not return before that batch is applied.
func TestSyncWaitsForConcurrentDrain(t *testing.T) {
	l := NewLedger()
	var absorbed atomic.Int64
	l.RegisterAbsorb("s", []string{"t"}, "x", 0, func(fs []float64, _ []string) {
		time.Sleep(100 * time.Microsecond) // hold the drain open
		absorbed.Add(int64(len(fs)))
	}, nil)
	vals := func(string) []float64 { return []float64{1} }
	for i := int64(1); i <= 200; i++ {
		l.AppendValues("t", 1, vals, nil)
		started, done := make(chan struct{}), make(chan struct{})
		go func() { close(started); l.Sync(); close(done) }()
		<-started
		runtime.Gosched()
		l.Sync()
		if got := absorbed.Load(); got != i {
			t.Fatalf("after append %d and Sync the sketch absorbed %d values", i, got)
		}
		<-done
	}
}
