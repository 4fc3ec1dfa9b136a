package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/table"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rows     int    // fact-table rows; 200000 unless the smoke test shrinks it
	probes   int    // accuracy probe queries
	setups   int    // set-ups per run; setup_s is their median
	root     string // checkout root (the directory of the engine's go.mod)
	out      string // bench/out: trace files, server log, temporary files
}

func (c config) window(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// The data is the same for every --seed: the fact table, the batches that
// are appended to it, and the accuracy probe's queries. The seed drives the
// traffic — the hot shapes, every literal, the order of operations. Accuracy
// then depends on the code alone, which is what lets rel_err_p50/p95 resolve
// a regression: across data seeds the quartiles of the plain model's
// rel_err_p95 lie 19 % of the median apart, across probe seeds 9 %.
const (
	dataSeed   = 1
	dataStores = 16 // 57 stores makes the grouped train alone 12.7 s
	fullRows   = 200_000
)

// modelSpecs are the models the workloads choose from, all seeded alike.
var modelSpecs = map[string]*dbest.ModelSpec{
	"plain":   {Table: factTable, XCols: []string{colDate}, YCol: colSales, SampleSize: 10000, Seed: 1},
	"grouped": {Table: factTable, XCols: []string{colList}, YCol: colProfit, GroupBy: colStore, SampleSize: 2000, Seed: 1},
	"sharded": {Table: factTable, XCols: []string{colCost}, YCol: colQty, Shards: 8, SampleSize: 10000, Seed: 1},
	"nominal": {Table: factTable, XCols: []string{colList}, YCol: colSales, NominalBy: colChannel, SampleSize: 10000, Seed: 1},
	"hll":     {Table: factTable, XCols: []string{colDate}, Sketch: "hll"},
	"topk":    {Table: factTable, XCols: []string{colChannel}, Sketch: "topk", TopK: topK},
}

// env is one set-up workload: the data, the engine, and a target per
// client.
type env struct {
	cfg     config
	w       *workload
	tb      *table.Table // the generated table; appends grow the engine's copy (liveTable)
	dom     domains
	batches [][][]interface{}
	// eng is the in-process engine: the system under test, or, for an HTTP
	// workload, the engine whose catalog the server loads and whose answers
	// the server's must equal.
	eng     *dbest.Engine
	srv     *server
	targets []target
	twin    *layerTwin
	tmp     string             // temporary files of this set-up, removed by close
	csv     string             // the table as the server loaded it (HTTP only)
	train   map[string]float64 // per-layer training readings of this set-up
}

// liveTable is the table as the in-process engine holds it now: the
// generated table plus every batch appended since.
func (e *env) liveTable() *table.Table { return e.eng.Table(factTable) }

// queryMix is the workload's mix without appends.
func (e *env) queryMix() []mixEntry {
	var mix []mixEntry
	for _, m := range e.w.mix {
		if m.class != clsIngest {
			mix = append(mix, m)
		}
	}
	return mix
}

// sampleSQL draws n query statements from the workload's mix.
func (e *env) sampleSQL(n int) []string {
	g := newGenerator(e.cfg.seed, 0, phaseLayers, e.queryMix(), e.dom, nil)
	sqls := make([]string, n)
	for i := range sqls {
		sqls[i] = g.next().sql
	}
	return sqls
}

func (e *env) close() {
	if e.eng != nil {
		e.eng.StopRefresher()
	}
	for _, t := range e.targets {
		if ht, ok := t.(*httpTarget); ok {
			ht.close()
		}
	}
	if e.srv != nil {
		e.srv.stop()
	}
	if e.tmp != "" {
		os.RemoveAll(e.tmp)
	}
}

// setup builds the workload from nothing: data, models, and for an HTTP
// workload the CSV, the saved catalog and the server. It returns once the
// system has given its first valid answer, and how long that took.
func setup(ctx context.Context, cfg config, w *workload, serveBin string) (*env, time.Duration, error) {
	t0 := time.Now()
	e := &env{cfg: cfg, w: w, train: map[string]float64{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	var err error
	if e.tmp, err = os.MkdirTemp(cfg.out, "tmp-"); err != nil {
		return nil, 0, err
	}
	e.tb = datagen.StoreSales(&datagen.StoreSalesOptions{Rows: cfg.rows, Stores: dataStores, Seed: dataSeed})
	if e.dom, err = tableDomains(e.tb); err != nil {
		return nil, 0, err
	}
	e.eng = dbest.New(nil)
	if err := e.eng.RegisterTable(e.tb); err != nil {
		return nil, 0, err
	}
	for _, name := range w.models {
		t := time.Now()
		info, err := e.eng.CreateModel(ctx, modelSpecs[name])
		if err != nil {
			return nil, 0, fmt.Errorf("create model %s: %w", name, err)
		}
		e.train["core.train_"+name+"_ms"] = float64(time.Since(t)) / 1e6
		if name == "plain" {
			e.train["core.sample_ms"] = float64(info.SampleTime) / 1e6
		}
	}
	clients := w.clients(nproc())
	if w.http {
		e.csv = filepath.Join(e.tmp, factTable+".csv")
		catalog := filepath.Join(e.tmp, "catalog.bin")
		if err := e.tb.SaveCSV(e.csv); err != nil {
			return nil, 0, err
		}
		if err := e.eng.SaveModels(catalog); err != nil {
			return nil, 0, err
		}
		if e.srv, err = startServer(ctx, serveBin, cfg.out, e.csv, catalog); err != nil {
			return nil, 0, err
		}
		for i := 0; i < clients; i++ {
			e.targets = append(e.targets, newHTTPTarget(e.srv.base))
		}
	} else {
		for i := 0; i < clients; i++ {
			e.targets = append(e.targets, &engineTarget{eng: e.eng})
		}
	}
	// The first answer: the first statement of the workload's own stream.
	first := newGenerator(cfg.seed, 0, phaseWarm, e.queryMix(), e.dom, nil).next()
	a, err := e.targets[0].query(first)
	if !validAnswer(first, a, err) {
		return nil, 0, fmt.Errorf("first answer to %q is not valid: %+v, %v", first.sql, a, err)
	}
	elapsed := time.Since(t0)
	e.batches = makeBatches(e.tb, dataSeed, 32)
	ok = true
	return e, elapsed, nil
}

// findRoot walks up from the working directory to the checkout root, the
// directory whose go.mod declares module dbest.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module dbest\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module dbest above the working directory: run from inside a checkout")
		}
		dir = parent
	}
}

// buildServer builds cmd/dbest-serve from the checkout root into its
// .bench_build directory, before any clock starts.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "dbest-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dbest-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dbest-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is a running dbest-serve subprocess.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// startServer starts dbest-serve with default flags on a free loopback
// port, loading the table from csv and the models from catalog, and waits
// until /healthz answers. The server's stderr goes to serve.log under out.
// Cancelling ctx kills it.
func startServer(ctx context.Context, bin, out, csv, catalog string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(filepath.Join(out, "serve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-table", factTable+"="+csv, "-load", catalog)
	cmd.Stderr = logf
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf}
	probe := newHTTPTarget(s.base)
	defer probe.close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var rep struct {
			Status string `json:"status"`
		}
		if _, err := probe.roundTrip("/healthz", nil, &rep); err == nil && rep.Status == "ok" {
			return s, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil || cmd.ProcessState != nil {
			s.stop()
			return nil, fmt.Errorf("dbest-serve on %s did not become healthy; see %s", addr, logf.Name())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop kills the server and waits until it has ended.
func (s *server) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.log.Close()
}

// procStats reads the server's CPU time and resident set from /proc.
func (s *server) procStats() (cpu time.Duration, rssMB float64, err error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, in clock ticks of 1/100 s.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 22 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	rssPages, _ := strconv.ParseInt(f[21], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond,
		float64(rssPages*int64(os.Getpagesize())) / (1 << 20), nil
}
