package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dbest"
)

// answer is what a target returned for one query, reduced to what the
// checks read.
type answer struct {
	value    float64
	groups   []groupValue
	top      []string
	source   string
	engineNs int64 // time the engine itself reported (Result.Elapsed / elapsed_us)
	bytes    int   // response body size (HTTP only)
}

type groupValue struct {
	group int64
	value float64
}

// counters are the engine's cumulative boundary counters; windows report
// their deltas. Over HTTP they are read from /stats.
type counters struct {
	PlanHits        uint64 `json:"plan_cache_hits"`
	PlanMisses      uint64 `json:"plan_cache_misses"`
	PlanResets      uint64 `json:"plan_cache_resets"`
	PlanGenWipes    uint64 `json:"plan_cache_generation_wipes"`
	SnapRebuilds    uint64 `json:"snapshot_rebuilds"`
	ShardsEvaluated uint64 `json:"shards_evaluated"`
	ShardsPruned    uint64 `json:"shards_pruned"`
	GridHits        uint64 `json:"grid_hits"`
	GridFallbacks   uint64 `json:"grid_fallbacks"`
	RouterModel     uint64 `json:"router_model_hits"`
	RouterExact     uint64 `json:"router_exact_fallbacks"`
	Refreshes       uint64 `json:"refreshes"`
	RefreshFailures uint64 `json:"refresh_failures"`
}

func (c counters) minus(o counters) counters {
	return counters{
		PlanHits: c.PlanHits - o.PlanHits, PlanMisses: c.PlanMisses - o.PlanMisses,
		PlanResets: c.PlanResets - o.PlanResets, PlanGenWipes: c.PlanGenWipes - o.PlanGenWipes,
		SnapRebuilds:    c.SnapRebuilds - o.SnapRebuilds,
		ShardsEvaluated: c.ShardsEvaluated - o.ShardsEvaluated, ShardsPruned: c.ShardsPruned - o.ShardsPruned,
		GridHits: c.GridHits - o.GridHits, GridFallbacks: c.GridFallbacks - o.GridFallbacks,
		RouterModel: c.RouterModel - o.RouterModel, RouterExact: c.RouterExact - o.RouterExact,
		Refreshes: c.Refreshes - o.Refreshes, RefreshFailures: c.RefreshFailures - o.RefreshFailures,
	}
}

// target is the system under test as one client sees it: the in-process
// engine, or one keep-alive connection to the dbest-serve subprocess. A
// target is used by one goroutine at a time.
type target interface {
	query(q *query) (answer, error)
	// queryTraced answers q while recording its spans under request id req.
	queryTraced(q *query, req uint64, tr *spanBuf) (answer, error)
	ingest(rows [][]interface{}) error
	counters() (counters, error)
	modelBytes() (int, error)
}

// engineTarget drives a dbest.Engine through its public methods.
type engineTarget struct {
	eng  *dbest.Engine
	twin *layerTwin // set for traced runs: sibling replays of the layers under the engine
}

func resultAnswer(res *dbest.Result) answer {
	a := answer{source: res.Source, engineNs: int64(res.Elapsed)}
	if len(res.Aggregates) == 0 {
		return a
	}
	agg := res.Aggregates[0]
	a.value = agg.Value
	for _, g := range agg.Groups {
		a.groups = append(a.groups, groupValue{g.Group, g.Value})
	}
	for _, e := range agg.TopK {
		a.top = append(a.top, e.Value)
	}
	return a
}

func (t *engineTarget) query(q *query) (answer, error) {
	res, err := t.eng.Query(q.sql)
	if err != nil {
		return answer{}, err
	}
	return resultAnswer(res), nil
}

// queryTraced issues q as its staged public calls, Normalize → Prepare →
// Run, each under a span whose parent is the request's root span. Run
// executes the plan every time (the memoized result of Engine.Query is
// bypassed), which is what attributes a request to its stages. On a
// 1-in-16 sample the layers below are replayed as siblings.
func (t *engineTarget) queryTraced(q *query, req uint64, tr *spanBuf) (answer, error) {
	cls := uint8(q.class)
	t0 := time.Now()
	layerNormalize(q.sql)
	t1 := time.Now()
	p, err := layerPrepare(t.eng, q.sql)
	t2 := time.Now()
	var res *dbest.Result
	if err == nil {
		res, err = layerRun(p)
	}
	t3 := time.Now()
	tr.add(req, 1, 0, spanQuery, cls, t0, t3)
	tr.add(req, 2, 1, spanNormalize, cls, t0, t1)
	tr.add(req, 3, 1, spanPrepare, cls, t1, t2)
	tr.add(req, 4, 1, spanRun, cls, t2, t3)
	if req%16 == 0 && t.twin != nil {
		t.twin.replay(q, req, tr)
	}
	if err != nil {
		return answer{}, err
	}
	return resultAnswer(res), nil
}

func (t *engineTarget) ingest(rows [][]interface{}) error {
	res, err := t.eng.Append(factTable, rows)
	if err != nil {
		return err
	}
	if res.Rejected != 0 {
		return fmt.Errorf("append rejected %d of %d rows", res.Rejected, len(rows))
	}
	return nil
}

func (t *engineTarget) counters() (counters, error) { return engineCounters(t.eng), nil }

func (t *engineTarget) modelBytes() (int, error) { return t.eng.ModelBytes(), nil }

// httpTarget is one keep-alive connection to dbest-serve.
type httpTarget struct {
	base   string
	client *http.Client
	body   bytes.Buffer
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{
		base: base,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			},
		},
	}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// roundTrip POSTs (or, with a nil payload, GETs) path and decodes the JSON
// reply into out. A non-200 is an error carrying the server's message.
func (t *httpTarget) roundTrip(path string, payload, out interface{}) (int, error) {
	var (
		resp *http.Response
		err  error
	)
	if payload == nil {
		resp, err = t.client.Get(t.base + path)
	} else {
		t.body.Reset()
		if err := json.NewEncoder(&t.body).Encode(payload); err != nil {
			return 0, err
		}
		resp, err = t.client.Post(t.base+path, "application/json", &t.body)
	}
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return len(raw), json.Unmarshal(raw, out)
}

// queryReply mirrors the /query response of cmd/dbest-serve.
type queryReply struct {
	Aggregates []struct {
		Value  float64 `json:"value"`
		Groups []struct {
			Group int64   `json:"group"`
			Value float64 `json:"value"`
		} `json:"groups"`
		TopK []struct {
			Value string `json:"value"`
		} `json:"topk"`
	} `json:"aggregates"`
	Source    string `json:"source"`
	ElapsedUs int64  `json:"elapsed_us"`
}

type sqlPayload struct {
	SQL string `json:"sql"`
}

func (t *httpTarget) query(q *query) (answer, error) {
	var rep queryReply
	n, err := t.roundTrip("/query", sqlPayload{q.sql}, &rep)
	if err != nil {
		return answer{bytes: n}, err
	}
	a := answer{source: rep.Source, engineNs: rep.ElapsedUs * 1000, bytes: n}
	if len(rep.Aggregates) > 0 {
		agg := rep.Aggregates[0]
		a.value = agg.Value
		for _, g := range agg.Groups {
			a.groups = append(a.groups, groupValue{g.Group, g.Value})
		}
		for _, e := range agg.TopK {
			a.top = append(a.top, e.Value)
		}
	}
	return a, nil
}

// queryTraced records the client's round trip as the request's root span
// and the elapsed_us the server reported as its child, so the root's self
// time is what HTTP, JSON and the socket cost around the engine.
func (t *httpTarget) queryTraced(q *query, req uint64, tr *spanBuf) (answer, error) {
	t0 := time.Now()
	a, err := t.query(q)
	t1 := time.Now()
	tr.add(req, 1, 0, spanRequest, uint8(q.class), t0, t1)
	if err == nil {
		tr.add(req, 2, 1, spanServer, uint8(q.class), t0, t0.Add(time.Duration(a.engineNs)))
	}
	return a, err
}

type ingestPayload struct {
	Table string          `json:"table"`
	Rows  [][]interface{} `json:"rows"`
}

func (t *httpTarget) ingest(rows [][]interface{}) error {
	var rep struct {
		Appended int `json:"appended"`
		Rejected int `json:"rejected"`
	}
	if _, err := t.roundTrip("/ingest", ingestPayload{factTable, rows}, &rep); err != nil {
		return err
	}
	if rep.Rejected != 0 || rep.Appended != len(rows) {
		return fmt.Errorf("ingest appended %d and rejected %d of %d rows", rep.Appended, rep.Rejected, len(rows))
	}
	return nil
}

func (t *httpTarget) counters() (counters, error) {
	var c counters
	_, err := t.roundTrip("/stats", nil, &c)
	return c, err
}

func (t *httpTarget) modelBytes() (int, error) {
	var rep struct {
		TotalBytes int `json:"total_bytes"`
	}
	_, err := t.roundTrip("/train-status", nil, &rep)
	return rep.TotalBytes, err
}
