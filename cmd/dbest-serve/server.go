package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"dbest"
	"dbest/internal/sqlparse"
)

// server exposes one shared dbest.Engine over HTTP/JSON. The engine is
// concurrency-safe, so every handler serves requests directly with no
// request queue in front.
type server struct {
	eng     *dbest.Engine
	started time.Time
}

// newHandler builds the HTTP routing for a shared engine.
func newHandler(eng *dbest.Engine) http.Handler {
	s := &server{eng: eng, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/query/batch", s.handleQueryBatch)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/train", s.handleTrain)
	mux.HandleFunc("/train-status", s.handleTrainStatus)
	mux.HandleFunc("/models", s.handleModels)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/staleness", s.handleStaleness)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	// Runtime profiling, wired explicitly because the server uses its own
	// mux rather than http.DefaultServeMux. /debug/pprof/mutex and
	// /debug/pprof/block only carry data when the corresponding sampling
	// rate flag (-mutexprofile / -blockprofile) is set.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

type groupJSON struct {
	Group int64   `json:"group"`
	Value float64 `json:"value"`
	// CI is the group's confidence interval [lo, hi] and PredRelErr its
	// predicted relative error; omitted when bounds are unknown.
	CI         []float64 `json:"ci,omitempty"`
	PredRelErr float64   `json:"pred_rel_err,omitempty"`
}

type topEntryJSON struct {
	Value string `json:"value"`
	Count uint64 `json:"count"`
}

type aggregateJSON struct {
	Name   string         `json:"name"`
	Value  float64        `json:"value"`
	Groups []groupJSON    `json:"groups,omitempty"`
	TopK   []topEntryJSON `json:"topk,omitempty"`
	// CI is the value's confidence interval [lo, hi] and PredRelErr the
	// predicted relative error from the model's train-time error predictor;
	// omitted when bounds are unknown (exact/sketch paths, old catalogs).
	CI         []float64 `json:"ci,omitempty"`
	PredRelErr float64   `json:"pred_rel_err,omitempty"`
}

type queryResponse struct {
	Aggregates []aggregateJSON `json:"aggregates"`
	Source     string          `json:"source"`
	ElapsedUs  int64           `json:"elapsed_us"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// toAggregatesJSON converts engine aggregate results to their wire form —
// the one conversion shared by /query and /query/batch.
func toAggregatesJSON(aggs []dbest.AggregateResult) []aggregateJSON {
	out := make([]aggregateJSON, 0, len(aggs))
	for _, agg := range aggs {
		aj := aggregateJSON{Name: agg.Name, Value: agg.Value}
		if agg.PredRelErr > 0 {
			aj.CI = []float64{agg.CI[0], agg.CI[1]}
			aj.PredRelErr = agg.PredRelErr
		}
		for _, g := range agg.Groups {
			gj := groupJSON{Group: g.Group, Value: g.Value}
			if g.PredRelErr > 0 {
				gj.CI = []float64{g.CI[0], g.CI[1]}
				gj.PredRelErr = g.PredRelErr
			}
			aj.Groups = append(aj.Groups, gj)
		}
		for _, e := range agg.TopK {
			aj.TopK = append(aj.TopK, topEntryJSON{Value: e.Value, Count: e.Count})
		}
		out = append(out, aj)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// Request body limits, per endpoint. A body past its limit is refused whole
// with 413, never truncated into something that fails to decode.
const (
	maxQueryBody  = 1 << 20  // /query and /explain
	maxBatchBody  = 8 << 20  // /query/batch
	maxTrainBody  = 1 << 20  // /train
	maxIngestBody = 32 << 20 // /ingest
)

// writeBodyError answers a failed request-body read: 413, naming the limit,
// when the body ran past it (http.MaxBytesReader), 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the limit of %d bytes", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// readSQL extracts the SQL statement from a request: ?sql= on GET, a JSON
// body {"sql": "..."} (or raw SQL text) on POST. An optional error budget —
// ?tolerance= on GET, "tolerance" in the JSON body, in percent — is folded
// into the statement as a WITHIN clause, so the engine's router serves the
// query from a model only when its predicted error fits the budget. A POST
// body past maxQueryBody fails with the *http.MaxBytesError writeBodyError
// turns into a 413.
func readSQL(w http.ResponseWriter, r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		sql := r.URL.Query().Get("sql")
		if sql == "" {
			return "", errors.New("missing sql query parameter")
		}
		if tol := r.URL.Query().Get("tolerance"); tol != "" {
			v, err := strconv.ParseFloat(tol, 64)
			if err != nil {
				return "", fmt.Errorf("bad tolerance %q: %w", tol, err)
			}
			sql = withTolerance(sql, v)
		}
		return sql, nil
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
		if err != nil {
			return "", err
		}
		var req struct {
			SQL       string  `json:"sql"`
			Tolerance float64 `json:"tolerance"`
		}
		if json.Unmarshal(body, &req) == nil && req.SQL != "" {
			if req.Tolerance > 0 {
				return withTolerance(req.SQL, req.Tolerance), nil
			}
			return req.SQL, nil
		}
		if sql := strings.TrimSpace(string(body)); sql != "" && !strings.HasPrefix(sql, "{") {
			return sql, nil
		}
		return "", errors.New(`missing sql: POST {"sql": "SELECT ..."}`)
	default:
		return "", fmt.Errorf("method %s not allowed", r.Method)
	}
}

// withTolerance appends a WITHIN <pct>% clause to sql (stripping a trailing
// semicolon first so the clause parses). A statement that already carries
// its own WITHIN clause — as the parser reads it, so not a string literal or
// an identifier that merely contains the word — is returned unchanged: the
// inline budget wins. So is one that does not parse, which the engine then
// rejects with its own error.
func withTolerance(sql string, pct float64) string {
	if q, err := sqlparse.Parse(sql); err != nil || q.HasTolerance {
		return sql
	}
	s := strings.TrimRight(strings.TrimSpace(sql), "; \t\r\n")
	return fmt.Sprintf("%s WITHIN %g%%", s, pct)
}

// handleQuery answers one SQL query from the shared engine.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql, err := readSQL(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	res, err := s.eng.Query(sql)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp := queryResponse{
		Aggregates: toAggregatesJSON(res.Aggregates),
		Source:     res.Source,
		ElapsedUs:  res.Elapsed.Microseconds(),
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxBatchQueries bounds one /query/batch request; larger workloads should
// split into multiple requests rather than pinning a worker pool this long.
const maxBatchQueries = 1024

type batchRequest struct {
	Queries []string `json:"queries"`
	// Tolerance, in percent, applies a WITHIN error budget to every query
	// in the batch (queries carrying their own WITHIN clause keep it).
	Tolerance float64 `json:"tolerance,omitempty"`
}

// batchItemJSON is one query's outcome: either a result or an error, never
// both — errors are isolated per query.
type batchItemJSON struct {
	Aggregates []aggregateJSON `json:"aggregates,omitempty"`
	Source     string          `json:"source,omitempty"`
	ElapsedUs  int64           `json:"elapsed_us,omitempty"`
	Error      string          `json:"error,omitempty"`
}

type batchResponse struct {
	Results   []batchItemJSON `json:"results"`
	ElapsedUs int64           `json:"elapsed_us"`
}

// handleQueryBatch answers many SQL queries in one request via
// Engine.QueryBatch: one parse/plan per distinct query shape, parallel
// execution, per-query error isolation. Results come back in input order.
func (s *server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`batch requires queries: POST {"queries": ["SELECT ..."]}`))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatchQueries))
		return
	}
	if req.Tolerance > 0 {
		for i, q := range req.Queries {
			req.Queries[i] = withTolerance(q, req.Tolerance)
		}
	}
	t0 := time.Now()
	results := s.eng.QueryBatch(req.Queries)
	resp := batchResponse{Results: make([]batchItemJSON, len(results))}
	for i, br := range results {
		if br.Err != nil {
			resp.Results[i].Error = br.Err.Error()
			continue
		}
		resp.Results[i] = batchItemJSON{
			Aggregates: toAggregatesJSON(br.Result.Aggregates),
			Source:     br.Result.Source,
			ElapsedUs:  br.Result.Elapsed.Microseconds(),
		}
	}
	resp.ElapsedUs = time.Since(t0).Microseconds()
	writeJSON(w, http.StatusOK, resp)
}

// handleExplain reports the plan for one SQL query without running it.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	sql, err := readSQL(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	plan, err := s.eng.Explain(sql)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Path      string   `json:"path"`
		ModelKeys []string `json:"model_keys,omitempty"`
		Reason    string   `json:"reason,omitempty"`
		Tree      string   `json:"tree"`
	}{plan.Path, plan.ModelKeys, plan.Reason, plan.Tree})
}

// trainRequest is the POST /train body: a full declarative model spec.
// Every spec field is accepted — joins ("join"), nominal categorical
// splits ("nominal_by"), sharded ensembles ("shards"), sampling budget and
// seed — and the legacy flat body (table/xcols/ycol/groupby/sample_size/
// seed/shards) remains valid because those are exactly the spec's core
// fields.
type trainRequest = dbest.ModelSpec

// handleTrain executes one declarative model spec over already-registered
// tables. Training runs synchronously; concurrent queries keep answering
// from the current catalog and pick the new models up when it completes.
func (s *server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var spec trainRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTrainBody)).Decode(&spec); err != nil {
		writeBodyError(w, err)
		return
	}
	// Spec validation failures are the client's fault (400); training
	// failures over valid specs (unknown column, empty table) are 422.
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Train under the request context: an abandoned client connection
	// cancels it, aborting the training instead of finishing for nobody.
	info, err := s.eng.CreateModel(r.Context(), &spec)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Key        string `json:"key"`
		Name       string `json:"name,omitempty"`
		NumModels  int    `json:"num_models"`
		ModelBytes int    `json:"model_bytes"`
		SampleRows int    `json:"sample_rows"`
		SampleUs   int64  `json:"sample_us"`
		TrainUs    int64  `json:"train_us"`
		// train_us by stage, summed over the pairs built (so above train_us
		// when they trained in parallel): the density and regressor fits,
		// the evaluation grid, the error-bound bootstrap.
		FitUs    int64 `json:"fit_us"`
		GridUs   int64 `json:"grid_us"`
		BoundsUs int64 `json:"bounds_us"`
		Shards   int   `json:"shards,omitempty"`
	}{info.Key, spec.Name, info.NumModels, info.ModelBytes, info.SampleRows,
		info.SampleTime.Microseconds(), info.TrainTime.Microseconds(),
		(info.Stages.Density + info.Stages.Regressor).Microseconds(),
		info.Stages.Grid.Microseconds(), info.Stages.Bounds.Microseconds(), info.Shards})
}

// handleModels lists every logical trained model — base key, declarative
// spec, ensemble size, footprint and staleness — via Engine.Models, which
// never leaks raw shard-member keys.
func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Models []dbest.ModelInfo `json:"models"`
	}{s.eng.Models()})
}

// maxIngestRows bounds one /ingest request; a sustained stream should send
// micro-batches rather than one giant request.
const maxIngestRows = 65536

type ingestRequest struct {
	Table string          `json:"table"`
	Rows  [][]interface{} `json:"rows"`
}

type ingestResponse struct {
	Appended int `json:"appended"`
	Rejected int `json:"rejected"`
	NumRows  int `json:"num_rows"`
	// Errors reuses the engine's RowError, whose json tags already define
	// the wire shape ({"row": i, "error": "..."}).
	Errors []dbest.RowError `json:"errors,omitempty"`
}

// handleIngest appends a batch of rows to a registered table. Rows are
// arrays of values in column order; rows that fail schema validation are
// rejected individually and reported, the rest are appended. Every
// appended row feeds the staleness ledger, so sustained ingest eventually
// triggers the background refresher.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	if req.Table == "" || len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`ingest requires table and rows: POST {"table": "t", "rows": [[...], ...]}`))
		return
	}
	if len(req.Rows) > maxIngestRows {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ingest of %d rows exceeds the limit of %d", len(req.Rows), maxIngestRows))
		return
	}
	res, err := s.eng.Append(req.Table, req.Rows)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Appended: res.Appended,
		Rejected: res.Rejected,
		NumRows:  res.NumRows,
		Errors:   res.Errors,
	})
}

type stalenessJSON struct {
	Key               string   `json:"key"`
	Tables            []string `json:"tables"`
	BaseRows          int      `json:"base_rows"`
	IngestedRows      int      `json:"ingested_rows"`
	ReservoirSize     int      `json:"reservoir_size,omitempty"`
	ReservoirReplaced int      `json:"reservoir_replaced,omitempty"`
	FracIngested      float64  `json:"frac_ingested"`
	FracReplaced      float64  `json:"frac_replaced"`
	Score             float64  `json:"score"`
	// Shard is meaningful only when Shards > 0 (shard 0 is a valid index,
	// so it cannot be omitempty).
	Shard             int    `json:"shard"`
	Shards            int    `json:"shards,omitempty"`
	LastTrainedUnixUs int64  `json:"last_trained_unix_us"`
	Refreshing        bool   `json:"refreshing,omitempty"`
	Refreshes         uint64 `json:"refreshes"`
	Failures          uint64 `json:"failures,omitempty"`
	LastError         string `json:"last_error,omitempty"`
	LastRetrainUs     int64  `json:"last_retrain_us,omitempty"`
}

// handleStaleness reports the per-model staleness ledger: how far each
// trained model has drifted from its table's live rows, and the background
// refresher's per-model history.
func (s *server) handleStaleness(w http.ResponseWriter, r *http.Request) {
	sts := s.eng.ModelStaleness()
	out := make([]stalenessJSON, 0, len(sts))
	for _, st := range sts {
		out = append(out, stalenessJSON{
			Key:               st.Key,
			Tables:            st.Tables,
			BaseRows:          st.BaseRows,
			IngestedRows:      st.IngestedRows,
			ReservoirSize:     st.ReservoirSize,
			ReservoirReplaced: st.ReservoirReplaced,
			FracIngested:      st.FracIngested,
			FracReplaced:      st.FracReplaced,
			Score:             st.Score,
			Shard:             st.Shard,
			Shards:            st.Shards,
			LastTrainedUnixUs: st.LastTrained.UnixMicro(),
			Refreshing:        st.Refreshing,
			Refreshes:         st.Refreshes,
			Failures:          st.Failures,
			LastError:         st.LastError,
			LastRetrainUs:     st.LastRetrain.Microseconds(),
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Models []stalenessJSON `json:"models"`
	}{out})
}

// handleTrainStatus reports what the catalog currently holds — the models
// available to answer queries and their total memory footprint.
func (s *server) handleTrainStatus(w http.ResponseWriter, r *http.Request) {
	keys := s.eng.ModelKeys()
	writeJSON(w, http.StatusOK, struct {
		ModelKeys  []string `json:"model_keys"`
		NumModels  int      `json:"num_model_sets"`
		TotalBytes int      `json:"total_bytes"`
	}{keys, len(keys), s.eng.ModelBytes()})
}

// handleStats reports serving-side counters: plan-cache effectiveness,
// snapshot publication, background-refresh activity, kernels, sketches, the
// router and uptime. The keys are the JSON names the engine's own Stats
// structs carry, so a counter is named in one place. Every counter reads
// from atomics, so polling /stats never contends with serving.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	rs := s.eng.RefreshStats()
	writeJSON(w, http.StatusOK, struct {
		dbest.PlanCacheStats
		dbest.SnapshotStats
		dbest.RefreshStats
		RefreshTotalUs int64 `json:"refresh_total_retrain_us"`
		RefreshLastUs  int64 `json:"refresh_last_retrain_us"`
		dbest.ShardStats
		dbest.EvalKernelStats
		dbest.SketchStats
		dbest.RouterStats
		UptimeSeconds int64 `json:"uptime_seconds"`
	}{
		PlanCacheStats:  s.eng.PlanCacheStats(),
		SnapshotStats:   s.eng.SnapshotStats(),
		RefreshStats:    rs,
		RefreshTotalUs:  rs.TotalRetrain.Microseconds(),
		RefreshLastUs:   rs.LastRetrain.Microseconds(),
		ShardStats:      s.eng.ShardStats(),
		EvalKernelStats: s.eng.EvalKernelStats(),
		SketchStats:     s.eng.SketchStats(),
		RouterStats:     s.eng.RouterStats(),
		UptimeSeconds:   int64(time.Since(s.started).Seconds()),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}
