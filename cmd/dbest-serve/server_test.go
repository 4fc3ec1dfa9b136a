package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dbest"
)

// newTestEngine builds an engine over a synthetic 50k-row table with a
// trained model pair for (x → y) queries.
func newTestEngine(t *testing.T) *dbest.Engine {
	t.Helper()
	const n = 50_000
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*xs[i] + 50*rng.NormFloat64()
		zs[i] = math.Sin(xs[i]/1000) + rng.NormFloat64()
	}
	tb := dbest.NewTable("sensor")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	tb.AddFloatColumn("z", zs)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "sensor", XCols: []string{"x"}, YCol: "y", SampleSize: 2000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("bad JSON from %s: %v: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestEndpoints(t *testing.T) {
	srv := httptest.NewServer(newHandler(newTestEngine(t)))
	defer srv.Close()

	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}

	var qr queryResponse
	code := getJSON(t, srv.URL+"/query?sql="+
		"SELECT+AVG(y)+FROM+sensor+WHERE+x+BETWEEN+10000+AND+20000", &qr)
	if code != 200 {
		t.Fatalf("query status = %d", code)
	}
	if qr.Source != "model" {
		t.Fatalf("query source = %q, want model", qr.Source)
	}
	// y = 2x + noise, so AVG(y) over [10000, 20000] should be near 30000.
	if len(qr.Aggregates) != 1 || math.Abs(qr.Aggregates[0].Value-30000) > 1500 {
		t.Fatalf("query aggregates = %+v, want AVG(y) ≈ 30000", qr.Aggregates)
	}

	// POST body form of the same query.
	body, _ := json.Marshal(map[string]string{
		"sql": "SELECT COUNT(y) FROM sensor WHERE x BETWEEN 0 AND 24999",
	})
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr2 queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(qr2.Aggregates) != 1 {
		t.Fatalf("POST query = %d %+v", resp.StatusCode, qr2)
	}
	if v := qr2.Aggregates[0].Value; math.Abs(v-25000) > 2500 {
		t.Fatalf("COUNT over half the table = %v, want ≈ 25000", v)
	}

	var ex struct {
		Path      string   `json:"path"`
		ModelKeys []string `json:"model_keys"`
		Reason    string   `json:"reason"`
	}
	if code := getJSON(t, srv.URL+"/explain?sql=SELECT+AVG(y)+FROM+sensor+WHERE+x+BETWEEN+1+AND+2", &ex); code != 200 {
		t.Fatalf("explain status = %d", code)
	}
	if ex.Path != "model" || len(ex.ModelKeys) != 1 {
		t.Fatalf("explain = %+v, want model path with one key", ex)
	}
	if code := getJSON(t, srv.URL+"/explain?sql=SELECT+AVG(z)+FROM+sensor+WHERE+x+BETWEEN+1+AND+2", &ex); code != 200 {
		t.Fatalf("explain status = %d", code)
	}
	if ex.Path != "exact" || ex.Reason == "" {
		t.Fatalf("explain unmodeled column = %+v, want exact path with reason", ex)
	}

	var ts struct {
		ModelKeys  []string `json:"model_keys"`
		NumModels  int      `json:"num_model_sets"`
		TotalBytes int      `json:"total_bytes"`
	}
	if code := getJSON(t, srv.URL+"/train-status", &ts); code != 200 {
		t.Fatalf("train-status = %d", code)
	}
	if ts.NumModels != 1 || ts.TotalBytes <= 0 {
		t.Fatalf("train-status = %+v, want one model set with nonzero bytes", ts)
	}

	// Training a second model set over HTTP makes it show up in the status.
	trainBody, _ := json.Marshal(trainRequest{
		Table: "sensor", XCols: []string{"x"}, YCol: "z", SampleSize: 1000, Seed: 2,
	})
	resp, err = http.Post(srv.URL+"/train", "application/json", bytes.NewReader(trainBody))
	if err != nil {
		t.Fatal(err)
	}
	// The reply splits train_us by stage; the stages of one pair add up to
	// no more than the wall clock around them.
	var tr struct {
		TrainUs  int64  `json:"train_us"`
		FitUs    *int64 `json:"fit_us"`
		GridUs   *int64 `json:"grid_us"`
		BoundsUs *int64 `json:"bounds_us"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if resp.StatusCode != 200 || err != nil {
		t.Fatalf("train status = %d, %v", resp.StatusCode, err)
	}
	if tr.FitUs == nil || tr.GridUs == nil || tr.BoundsUs == nil {
		t.Fatalf("train reply lacks a stage time: %+v", tr)
	}
	if *tr.FitUs <= 0 || *tr.GridUs <= 0 || *tr.BoundsUs <= 0 || *tr.FitUs+*tr.GridUs+*tr.BoundsUs > tr.TrainUs {
		t.Fatalf("train reply stages fit=%d grid=%d bounds=%d of train_us=%d", *tr.FitUs, *tr.GridUs, *tr.BoundsUs, tr.TrainUs)
	}
	if code := getJSON(t, srv.URL+"/train-status", &ts); code != 200 || ts.NumModels != 2 {
		t.Fatalf("train-status after train = %d %+v, want 2 model sets", code, ts)
	}
	if code := getJSON(t, srv.URL+"/explain?sql=SELECT+AVG(z)+FROM+sensor+WHERE+x+BETWEEN+1+AND+2", &ex); code != 200 || ex.Path != "model" {
		t.Fatalf("explain after train = %d %+v, want model path", code, ex)
	}
}

func TestQueryErrors(t *testing.T) {
	srv := httptest.NewServer(newHandler(newTestEngine(t)))
	defer srv.Close()

	if code := getJSON(t, srv.URL+"/query", nil); code != http.StatusBadRequest {
		t.Fatalf("missing sql = %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/query?sql=NOT+SQL", nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad sql = %d, want 422", code)
	}
	if code := getJSON(t, srv.URL+"/query?sql=SELECT+AVG(y)+FROM+nosuch", nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown table = %d, want 422", code)
	}
}

// TestConcurrentLoad hammers /query from many goroutines while /train keeps
// mutating the catalog — the serving-layer contract the PR is about. Run
// under -race this doubles as the data-race check for the shared engine,
// plan cache and catalog generation counter.
func TestConcurrentLoad(t *testing.T) {
	srv := httptest.NewServer(newHandler(newTestEngine(t)))
	defer srv.Close()

	shapes := []string{
		"SELECT AVG(y) FROM sensor WHERE x BETWEEN %d AND %d",
		"SELECT COUNT(y) FROM sensor WHERE x BETWEEN %d AND %d",
		"SELECT SUM(y) FROM sensor WHERE x BETWEEN %d AND %d",
	}
	const (
		clients          = 8
		queriesPerClient = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queriesPerClient; i++ {
				// Half the queries repeat one fixed shape to exercise cache
				// hits; the rest vary bounds to exercise misses.
				lo, hi := 1000, 30000
				if i%2 == 1 {
					lo = (c*queriesPerClient + i) % 20000
					hi = lo + 10000
				}
				sql := fmt.Sprintf(shapes[i%len(shapes)], lo, hi)
				body, _ := json.Marshal(map[string]string{"sql": sql})
				resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("query %q: status %d", sql, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	// One writer retraining concurrently: every Put bumps the catalog
	// generation and invalidates cached plans mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			body, _ := json.Marshal(trainRequest{
				Table: "sensor", XCols: []string{"x"}, YCol: "z",
				SampleSize: 500, Seed: int64(i),
			})
			resp, err := http.Post(srv.URL+"/train", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("train: status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var st struct {
		Hits   uint64 `json:"plan_cache_hits"`
		Misses uint64 `json:"plan_cache_misses"`
	}
	if code := getJSON(t, srv.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if st.Hits == 0 {
		t.Fatalf("stats = %+v: repeated query shapes should hit the plan cache", st)
	}
}

// TestBatchEndpoint: /query/batch answers many queries in one request with
// per-query error isolation and input-order results.
func TestBatchEndpoint(t *testing.T) {
	srv := httptest.NewServer(newHandler(newTestEngine(t)))
	defer srv.Close()

	body, _ := json.Marshal(batchRequest{Queries: []string{
		"SELECT AVG(y) FROM sensor WHERE x BETWEEN 10000 AND 20000",
		"NOT SQL AT ALL",
		"SELECT COUNT(y) FROM sensor WHERE x BETWEEN 0 AND 24999",
	}})
	resp, err := http.Post(srv.URL+"/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(br.Results))
	}
	r0 := br.Results[0]
	if r0.Error != "" || r0.Source != "model" || len(r0.Aggregates) != 1 ||
		math.Abs(r0.Aggregates[0].Value-30000) > 1500 {
		t.Fatalf("results[0] = %+v, want AVG(y) ≈ 30000 from model", r0)
	}
	if br.Results[1].Error == "" || len(br.Results[1].Aggregates) != 0 {
		t.Fatalf("results[1] = %+v, want isolated error", br.Results[1])
	}
	r2 := br.Results[2]
	if r2.Error != "" || math.Abs(r2.Aggregates[0].Value-25000) > 2500 {
		t.Fatalf("results[2] = %+v, want COUNT ≈ 25000", r2)
	}

	// Error shapes: GET, empty batch, oversized batch.
	if code := getJSON(t, srv.URL+"/query/batch", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch = %d, want 405", code)
	}
	for _, bad := range []string{`{}`, `{"queries": []}`} {
		resp, err := http.Post(srv.URL+"/query/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch %q = %d, want 400", bad, resp.StatusCode)
		}
	}
	huge, _ := json.Marshal(batchRequest{Queries: make([]string, maxBatchQueries+1)})
	resp, err = http.Post(srv.URL+"/query/batch", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", resp.StatusCode)
	}
}

// TestBatchConcurrentWithTrain hammers /query/batch from several clients
// while /train keeps mutating the catalog. Under -race this is the data-race
// check for QueryBatch's shared prepared plans, the plan cache's wholesale
// wipes, and the catalog's lazily rebuilt per-table index.
func TestBatchConcurrentWithTrain(t *testing.T) {
	srv := httptest.NewServer(newHandler(newTestEngine(t)))
	defer srv.Close()

	clients, batchesPerClient, perBatch := 5, 8, 6
	if testing.Short() {
		clients, batchesPerClient = 3, 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < batchesPerClient; i++ {
				queries := make([]string, 0, perBatch)
				for k := 0; k < perBatch; k++ {
					lo := ((c+i+k)*3000)%40000 + 1
					queries = append(queries, fmt.Sprintf(
						"SELECT AVG(y) FROM sensor WHERE x BETWEEN %d AND %d", lo, lo+2000))
				}
				body, _ := json.Marshal(batchRequest{Queries: queries})
				resp, err := http.Post(srv.URL+"/query/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var br batchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 || len(br.Results) != len(queries) {
					errs <- fmt.Errorf("batch: status %d, %d results", resp.StatusCode, len(br.Results))
					return
				}
				for _, item := range br.Results {
					if item.Error != "" {
						errs <- fmt.Errorf("batch item error: %s", item.Error)
						return
					}
				}
			}
		}(c)
	}
	// Concurrent writer: every /train bumps the catalog generation, wiping
	// cached plans out from under in-flight batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			body, _ := json.Marshal(trainRequest{
				Table: "sensor", XCols: []string{"x"}, YCol: "z",
				SampleSize: 300, Seed: int64(i),
			})
			resp, err := http.Post(srv.URL+"/train", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("train: status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Deterministic epilogue for the generation-wipe counter: the cache now
	// holds the batch shapes, so one more train followed by any prepared
	// query must wipe it — regardless of how the concurrent phase above
	// happened to interleave.
	body, _ := json.Marshal(trainRequest{
		Table: "sensor", XCols: []string{"x"}, YCol: "z", SampleSize: 300, Seed: 99,
	})
	resp, err := http.Post(srv.URL+"/train", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if code := getJSON(t, srv.URL+"/query?sql=SELECT+AVG(y)+FROM+sensor+WHERE+x+BETWEEN+1+AND+2000", nil); code != 200 {
		t.Fatalf("post-train query = %d", code)
	}

	// The new plan-cache counters are exposed via /stats.
	var st struct {
		Hits      uint64 `json:"plan_cache_hits"`
		Misses    uint64 `json:"plan_cache_misses"`
		Evictions uint64 `json:"plan_cache_evictions"`
		GenWipes  uint64 `json:"plan_cache_generation_wipes"`
	}
	if code := getJSON(t, srv.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if st.Hits == 0 {
		t.Fatalf("stats = %+v: repeated batch shapes should hit the plan cache", st)
	}
	if st.GenWipes == 0 || st.Evictions == 0 {
		t.Fatalf("stats = %+v: training must wipe the populated plan cache", st)
	}
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v: %s", url, err, data)
		}
	}
	return resp.StatusCode
}

func TestIngestAndStalenessEndpoints(t *testing.T) {
	srv := httptest.NewServer(newHandler(newTestEngine(t)))
	defer srv.Close()

	// A fresh model reports zero staleness.
	var stal struct {
		Models []struct {
			Key          string  `json:"key"`
			BaseRows     int     `json:"base_rows"`
			IngestedRows int     `json:"ingested_rows"`
			Score        float64 `json:"score"`
		} `json:"models"`
	}
	if code := getJSON(t, srv.URL+"/staleness", &stal); code != 200 {
		t.Fatalf("staleness = %d", code)
	}
	if len(stal.Models) != 1 || stal.Models[0].Score != 0 || stal.Models[0].BaseRows != 50_000 {
		t.Fatalf("staleness = %+v", stal)
	}

	// Ingest a batch with one bad row: per-row error reporting.
	var ing struct {
		Appended int `json:"appended"`
		Rejected int `json:"rejected"`
		NumRows  int `json:"num_rows"`
		Errors   []struct {
			Row   int    `json:"row"`
			Error string `json:"error"`
		} `json:"errors"`
	}
	req := map[string]interface{}{
		"table": "sensor",
		"rows": [][]interface{}{
			{1.5, 3.0, 0.1},
			{"bad", 3.0, 0.1},
			{2.5, 5.0, 0.2},
		},
	}
	if code := postJSON(t, srv.URL+"/ingest", req, &ing); code != 200 {
		t.Fatalf("ingest = %d", code)
	}
	if ing.Appended != 2 || ing.Rejected != 1 || ing.NumRows != 50_002 {
		t.Fatalf("ingest response = %+v", ing)
	}
	if len(ing.Errors) != 1 || ing.Errors[0].Row != 1 || ing.Errors[0].Error == "" {
		t.Fatalf("ingest errors = %+v", ing.Errors)
	}

	// The ledger saw the appended rows.
	if code := getJSON(t, srv.URL+"/staleness", &stal); code != 200 {
		t.Fatalf("staleness = %d", code)
	}
	if stal.Models[0].IngestedRows != 2 {
		t.Fatalf("staleness after ingest = %+v", stal.Models[0])
	}

	// Error shapes: unknown table, missing rows, GET.
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, srv.URL+"/ingest",
		map[string]interface{}{"table": "nope", "rows": [][]interface{}{{1.0}}}, &e); code != 422 || e.Error == "" {
		t.Fatalf("unknown-table ingest = %d %+v", code, e)
	}
	if code := postJSON(t, srv.URL+"/ingest", map[string]interface{}{"table": "sensor"}, &e); code != 400 {
		t.Fatalf("empty ingest = %d", code)
	}
	if code := getJSON(t, srv.URL+"/ingest", &e); code != 405 {
		t.Fatalf("GET ingest = %d", code)
	}

	// /stats exposes the refresh counters (refresher not running here).
	var st struct {
		RefreshRunning bool `json:"refresh_running"`
		TrackedModels  int  `json:"tracked_models"`
	}
	if code := getJSON(t, srv.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if st.RefreshRunning || st.TrackedModels != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// An abandoned /train request must abort the training instead of finishing
// it for nobody: the handler trains under the request context.
func TestTrainHonorsRequestCancellation(t *testing.T) {
	eng := newTestEngine(t)
	handler := newHandler(eng)

	before := eng.ModelKeys()
	body := `{"table": "sensor", "xcols": ["z"], "ycol": "x", "sample_size": 2000}`
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest(http.MethodPost, "/train", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("canceled train = %d, want 422", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "cancel") {
		t.Fatalf("canceled train body = %s", rec.Body.String())
	}
	// Nothing was added to the catalog.
	if got := eng.ModelKeys(); len(got) != len(before) {
		t.Fatalf("canceled train mutated the catalog: %v -> %v", before, got)
	}
}

// End-to-end over HTTP: ingest past the threshold and watch the background
// refresher retrain, with the new row count reflected in model answers.
func TestIngestTriggersBackgroundRefresh(t *testing.T) {
	eng := newTestEngine(t)
	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval:  5 * time.Millisecond,
		Threshold: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopRefresher()
	srv := httptest.NewServer(newHandler(eng))
	defer srv.Close()

	// Ingest 60k rows (staleness 1.2) in micro-batches.
	rng := rand.New(rand.NewSource(11))
	const batch, batches = 6000, 10
	for b := 0; b < batches; b++ {
		rows := make([][]interface{}, batch)
		for i := range rows {
			x := float64(rng.Intn(50_000))
			rows[i] = []interface{}{x, 2 * x, 0.0}
		}
		var ing struct {
			Appended int `json:"appended"`
		}
		if code := postJSON(t, srv.URL+"/ingest",
			map[string]interface{}{"table": "sensor", "rows": rows}, &ing); code != 200 || ing.Appended != batch {
			t.Fatalf("batch %d: code %d appended %d", b, code, ing.Appended)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	var st struct {
		Refreshes uint64 `json:"refreshes"`
		LastError string `json:"refresh_last_error"`
	}
	for {
		if code := getJSON(t, srv.URL+"/stats", &st); code != 200 {
			t.Fatalf("stats = %d", code)
		}
		if st.Refreshes >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background refresh; stats = %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.LastError != "" {
		t.Fatalf("refresh error: %s", st.LastError)
	}
}

// TestShardedTrainAndStats: POST /train with a shards field builds a
// range-sharded ensemble; narrow queries prune shards, visible in /stats.
func TestShardedTrainAndStats(t *testing.T) {
	eng := newTestEngine(t)
	srv := httptest.NewServer(newHandler(eng))
	defer srv.Close()

	var tr struct {
		Key       string `json:"key"`
		NumModels int    `json:"num_models"`
		Shards    int    `json:"shards"`
	}
	if code := postJSON(t, srv.URL+"/train", map[string]interface{}{
		"table": "sensor", "xcols": []string{"x"}, "ycol": "z",
		"sample_size": 1000, "seed": 3, "shards": 8,
	}, &tr); code != 200 {
		t.Fatalf("sharded train status = %d", code)
	}
	if tr.Shards != 8 || tr.NumModels != 8 {
		t.Fatalf("train response = %+v, want 8 shards / 8 models", tr)
	}

	// A sharded train with multiple x columns or a groupby is a 400.
	if code := postJSON(t, srv.URL+"/train", map[string]interface{}{
		"table": "sensor", "xcols": []string{"x", "y"}, "ycol": "z", "shards": 4,
	}, nil); code != 400 {
		t.Fatalf("multivariate sharded train status = %d, want 400", code)
	}

	// EXPLAIN shows the ShardMerge operator.
	var ex struct {
		Path string `json:"path"`
		Tree string `json:"tree"`
	}
	sql := "SELECT AVG(z) FROM sensor WHERE x BETWEEN 1000 AND 2000"
	if code := getJSON(t, srv.URL+"/explain?sql="+strings.ReplaceAll(sql, " ", "+"), &ex); code != 200 {
		t.Fatalf("explain status = %d", code)
	}
	if ex.Path != "model" || !strings.Contains(ex.Tree, "ShardMerge") {
		t.Fatalf("explain = %+v", ex)
	}

	// Running the narrow query moves the shard counters, and /stats shows
	// far more pruned than evaluated.
	var qr queryResponse
	if code := getJSON(t, srv.URL+"/query?sql="+strings.ReplaceAll(sql, " ", "+"), &qr); code != 200 {
		t.Fatalf("query status = %d", code)
	}
	var st struct {
		ShardsEvaluated uint64 `json:"shards_evaluated"`
		ShardsPruned    uint64 `json:"shards_pruned"`
	}
	if code := getJSON(t, srv.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats status = %d", code)
	}
	if st.ShardsEvaluated == 0 || st.ShardsPruned == 0 {
		t.Fatalf("shard counters = %+v, want both nonzero after a narrow query", st)
	}
	if st.ShardsEvaluated+st.ShardsPruned != 8 {
		t.Fatalf("counters %+v do not sum to the ensemble size", st)
	}

	// /staleness reports per-shard entries with shard metadata.
	var stale struct {
		Models []stalenessJSON `json:"models"`
	}
	if code := getJSON(t, srv.URL+"/staleness", &stale); code != 200 {
		t.Fatalf("staleness status = %d", code)
	}
	sharded := 0
	for _, m := range stale.Models {
		if m.Shards == 8 {
			sharded++
		}
	}
	if sharded != 8 {
		t.Fatalf("staleness lists %d sharded entries, want 8: %+v", sharded, stale.Models)
	}
}

// POST /train accepts a full declarative model spec — here a named sharded
// ensemble — and GET /models lists it with its spec and staleness, without
// leaking raw shard-member keys.
func TestTrainSpecBodyAndModelsEndpoint(t *testing.T) {
	eng := newTestEngine(t)
	srv := httptest.NewServer(newHandler(eng))
	defer srv.Close()

	var tr struct {
		Key    string `json:"key"`
		Name   string `json:"name"`
		Shards int    `json:"shards"`
	}
	if code := postJSON(t, srv.URL+"/train", map[string]interface{}{
		"name": "z_by_x", "table": "sensor", "xcols": []string{"x"}, "ycol": "z",
		"sample_size": 1000, "seed": 3, "shards": 4,
	}, &tr); code != 200 {
		t.Fatalf("spec train status = %d", code)
	}
	if tr.Name != "z_by_x" || tr.Shards != 4 {
		t.Fatalf("train response = %+v", tr)
	}

	var ml struct {
		Models []dbest.ModelInfo `json:"models"`
	}
	if code := getJSON(t, srv.URL+"/models", &ml); code != 200 {
		t.Fatalf("models status = %d", code)
	}
	if len(ml.Models) != 2 { // the seed x→y model plus z_by_x
		t.Fatalf("models = %+v, want 2 entries", ml.Models)
	}
	for _, m := range ml.Models {
		if strings.Contains(m.Key, "@s") {
			t.Fatalf("GET /models leaked a shard-member key: %q", m.Key)
		}
		if !m.Tracked || m.Bytes <= 0 {
			t.Fatalf("model entry = %+v, want tracked with nonzero bytes", m)
		}
	}
	var named *dbest.ModelInfo
	for i := range ml.Models {
		if ml.Models[i].Name == "z_by_x" {
			named = &ml.Models[i]
		}
	}
	if named == nil || named.Shards != 4 || named.Spec == nil || named.Spec.SampleSize != 1000 {
		t.Fatalf("named model entry = %+v, want spec round-tripped over the wire", named)
	}

	// The spec-trained ensemble answers queries.
	var qr queryResponse
	if code := getJSON(t, srv.URL+"/query?sql="+
		"SELECT+COUNT(*)+FROM+sensor+WHERE+x+BETWEEN+0+AND+9999", &qr); code != 200 {
		t.Fatalf("query status = %d", code)
	}
	if qr.Source != "model" {
		t.Fatalf("query source = %q, want model", qr.Source)
	}

	// Invalid specs are the client's fault: 400, not 422.
	if code := postJSON(t, srv.URL+"/train", map[string]interface{}{
		"table": "sensor", "xcols": []string{"x"}, "ycol": "z", "regressor": "forest",
	}, nil); code != 400 {
		t.Fatalf("bad regressor status = %d, want 400", code)
	}
	if code := postJSON(t, srv.URL+"/train", map[string]interface{}{
		"table": "sensor", "xcols": []string{"x"},
	}, nil); code != 400 {
		t.Fatalf("missing ycol status = %d, want 400", code)
	}
	// A valid spec over a bad column is a training failure: 422.
	if code := postJSON(t, srv.URL+"/train", map[string]interface{}{
		"table": "sensor", "xcols": []string{"nope"}, "ycol": "z",
	}, nil); code != 422 {
		t.Fatalf("unknown column status = %d, want 422", code)
	}
}

// TestSnapshotStatsAndPprof: /stats exposes the engine's snapshot counters
// and the pprof handlers are wired onto the server's mux.
func TestSnapshotStatsAndPprof(t *testing.T) {
	srv := httptest.NewServer(newHandler(newTestEngine(t)))
	defer srv.Close()

	var st struct {
		SnapshotGeneration uint64 `json:"snapshot_generation"`
		SnapshotRebuilds   uint64 `json:"snapshot_rebuilds"`
		CatalogRebuilds    uint64 `json:"catalog_rebuilds"`
	}
	if code := getJSON(t, srv.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	// newTestEngine registers a table and trains at least one model, so the
	// engine must have published snapshots past the initial empty one.
	if st.SnapshotGeneration == 0 || st.SnapshotRebuilds == 0 || st.CatalogRebuilds == 0 {
		t.Fatalf("stats = %+v: want non-zero snapshot counters after table+train", st)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/mutex?debug=1", "/debug/pprof/block?debug=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestSketchEndpoints drives the sketch lifecycle over HTTP: build sketches
// via POST /train (a sketch spec is just a ModelSpec), query COUNT(DISTINCT)
// and TOP-K through /query (TOP entries ride in the aggregate's topk field),
// ingest rows that the sketches absorb, and watch the /stats and /models
// counters move.
func TestSketchEndpoints(t *testing.T) {
	srv := httptest.NewServer(newHandler(newTestEngine(t)))
	defer srv.Close()

	var tr struct {
		Key        string `json:"key"`
		ModelBytes int    `json:"model_bytes"`
	}
	if code := postJSON(t, srv.URL+"/train",
		map[string]interface{}{"name": "dx", "table": "sensor", "xcols": []string{"x"}, "sketch": "hll"},
		&tr); code != 200 {
		t.Fatalf("sketch train = %d", code)
	}
	if !strings.Contains(tr.Key, "sketch:hll") || tr.ModelBytes <= 0 {
		t.Fatalf("sketch train response = %+v", tr)
	}
	if code := postJSON(t, srv.URL+"/train",
		map[string]interface{}{"name": "tx", "table": "sensor", "xcols": []string{"x"}, "sketch": "topk", "topk": 3},
		nil); code != 200 {
		t.Fatalf("topk train = %d", code)
	}

	var q queryResponse
	if code := getJSON(t, srv.URL+"/query?sql="+url.QueryEscape("SELECT COUNT(DISTINCT x) FROM sensor"), &q); code != 200 {
		t.Fatalf("distinct query = %d", code)
	}
	if q.Source != "sketch" {
		t.Fatalf("distinct source = %q, want sketch", q.Source)
	}
	if got := q.Aggregates[0].Value; got < 49000 || got > 51000 {
		t.Fatalf("COUNT(DISTINCT x) = %v, want ~50000", got)
	}
	if code := getJSON(t, srv.URL+"/query?sql="+url.QueryEscape("SELECT TOP 3(x) FROM sensor"), &q); code != 200 {
		t.Fatalf("top query = %d", code)
	}
	if q.Source != "sketch" || len(q.Aggregates[0].TopK) != 3 {
		t.Fatalf("TOP response = %+v (%s)", q.Aggregates[0], q.Source)
	}

	// Ingest feeds the absorb path; /stats and /models reflect it.
	rows := make([][]interface{}, 100)
	for i := range rows {
		rows[i] = []interface{}{float64(60000 + i), 1.0, 1.0}
	}
	if code := postJSON(t, srv.URL+"/ingest", map[string]interface{}{"table": "sensor", "rows": rows}, nil); code != 200 {
		t.Fatalf("ingest = %d", code)
	}
	if code := getJSON(t, srv.URL+"/query?sql="+url.QueryEscape("SELECT COUNT(DISTINCT x) FROM sensor"), &q); code != 200 {
		t.Fatalf("post-ingest query = %d", code)
	}
	var stats struct {
		SketchHits    uint64 `json:"sketch_hits"`
		SketchUpdates uint64 `json:"sketch_updates"`
		SketchBytes   int    `json:"sketch_bytes"`
	}
	if code := getJSON(t, srv.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if stats.SketchHits < 3 || stats.SketchUpdates != 200 || stats.SketchBytes <= 0 {
		t.Fatalf("sketch stats = %+v, want hits >= 3, updates == 200 (100 rows x 2 sketches), bytes > 0", stats)
	}

	var models struct {
		Models []dbest.ModelInfo `json:"models"`
	}
	if code := getJSON(t, srv.URL+"/models", &models); code != 200 {
		t.Fatalf("models = %d", code)
	}
	sketches := 0
	for _, m := range models.Models {
		if m.Type == "" {
			continue
		}
		sketches++
		if m.AbsorbedRows != 50_100 {
			t.Fatalf("sketch %s absorbed %d rows, want 50100", m.Key, m.AbsorbedRows)
		}
	}
	if sketches != 2 {
		t.Fatalf("models listed %d sketches, want 2", sketches)
	}
}

// TestStatsContract pins the /stats wire format: exactly these 29 keys, each
// with this JSON kind. The handler emits the engine's tagged Stats structs,
// so renaming a tag or dropping a struct from the response fails here rather
// than in whoever scrapes the endpoint (bench/target.go decodes 13 of them).
// refresh_last_error is omitted while empty, so the test first makes the
// refresher fail: the watched table is dropped and the model force-staled.
func TestStatsContract(t *testing.T) {
	eng := newTestEngine(t)
	if err := eng.StartRefresher(&dbest.RefreshOptions{Interval: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopRefresher()
	eng.DropTable("sensor")
	srv := httptest.NewServer(newHandler(eng))
	defer srv.Close()

	want := map[string]string{
		"plan_cache_hits": "number", "plan_cache_misses": "number", "plan_cache_evictions": "number",
		"plan_cache_resets": "number", "plan_cache_generation_wipes": "number", "plan_cache_entries": "number",
		"snapshot_generation": "number", "snapshot_rebuilds": "number", "catalog_rebuilds": "number",
		"refresh_running": "bool", "refresh_scans": "number", "refreshes": "number",
		"refresh_failures": "number", "refresh_last_error": "string",
		"refresh_total_retrain_us": "number", "refresh_last_retrain_us": "number", "tracked_models": "number",
		"shards_evaluated": "number", "shards_pruned": "number",
		"grid_hits": "number", "grid_fallbacks": "number",
		"sketch_hits": "number", "sketch_updates": "number", "sketch_bytes": "number",
		"router_model_hits": "number", "router_exact_fallbacks": "number",
		"router_observations": "number", "router_tracked_models": "number",
		"uptime_seconds": "number",
	}
	if len(want) != 29 {
		t.Fatalf("the contract lists %d keys, want 29", len(want))
	}

	deadline := time.Now().Add(30 * time.Second)
	var got map[string]interface{}
	for {
		got = nil
		if code := getJSON(t, srv.URL+"/stats", &got); code != 200 {
			t.Fatalf("stats = %d", code)
		}
		if f, _ := got["refresh_failures"].(float64); f >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refresher recorded no failure after the table was dropped; stats = %v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for key, v := range got {
		kind := "other"
		switch v.(type) {
		case float64:
			kind = "number"
		case bool:
			kind = "bool"
		case string:
			kind = "string"
		}
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("/stats has unexpected key %q (%s)", key, kind)
		case w != kind:
			t.Errorf("/stats key %q is a %s, want %s", key, kind, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("/stats lacks key %q", key)
		}
	}
	if got["refresh_running"] != true || got["refresh_last_error"] == "" || got["tracked_models"] != float64(1) {
		t.Errorf("/stats = %v: want a running refresher with one tracked model and a recorded error", got)
	}
}

// TestWithToleranceReadsTheParsedClause: a ?tolerance= budget is dropped
// only for a statement that carries its own WITHIN clause, not for one
// whose string literal or identifier merely contains the word.
func TestWithToleranceReadsTheParsedClause(t *testing.T) {
	for _, c := range []struct{ sql, want string }{
		{"SELECT AVG(y) FROM t WHERE ch = 'within reach' AND x BETWEEN 1 AND 2",
			"SELECT AVG(y) FROM t WHERE ch = 'within reach' AND x BETWEEN 1 AND 2 WITHIN 5%"},
		{"SELECT AVG(within_ms) FROM t WHERE x BETWEEN 1 AND 2;",
			"SELECT AVG(within_ms) FROM t WHERE x BETWEEN 1 AND 2 WITHIN 5%"},
		{"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2 WITHIN 2%",
			"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2 WITHIN 2%"},
	} {
		if got := withTolerance(c.sql, 5); got != c.want {
			t.Errorf("withTolerance(%q, 5) = %q, want %q", c.sql, got, c.want)
		}
	}
}

// TestBodyLimits: a request body one byte past its endpoint's limit is
// refused with 413 and the limit in the message, instead of being cut short
// into a JSON syntax error.
func TestBodyLimits(t *testing.T) {
	h := newHandler(dbest.New(nil))
	for _, c := range []struct {
		path, prefix string
		limit        int
	}{
		{"/query", `{"sql":"`, maxQueryBody},
		{"/explain", `{"sql":"`, maxQueryBody},
		{"/query/batch", `{"queries":["`, maxBatchBody},
		{"/train", `{"table":"`, maxTrainBody},
		{"/ingest", `{"table":"`, maxIngestBody},
	} {
		suffix := `"}`
		if c.path == "/query/batch" {
			suffix = `"]}`
		}
		body := c.prefix + strings.Repeat("a", c.limit+1-len(c.prefix)-len(suffix)) + suffix
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(body)))
		var e errorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: bad JSON %q: %v", c.path, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, fmt.Sprint(c.limit)) {
			t.Errorf("%s with a %d-byte body = %d %q, want 413 naming the %d-byte limit", c.path, len(body), rec.Code, e.Error, c.limit)
		}
	}
}
