// Command dbest-serve is the network front end of the DBEst engine: it
// loads CSV tables, trains (or loads) model catalogs at startup, then
// serves SQL aggregate queries over HTTP/JSON from one shared engine.
//
// Usage:
//
//	dbest-serve -addr :8080 \
//	    -table sales=sales.csv \
//	    -train 'sales:date:price'
//
//	dbest-serve -addr :8080 -load models.gob
//
// Endpoints (all JSON):
//
//	GET  /query?sql=...      answer a query (also POST {"sql": "..."})
//	POST /query/batch        answer many queries in one request
//	GET  /explain?sql=...    plan for a query without running it
//	POST /train              execute a declarative model spec (table, xcols,
//	                         ycol, and optionally join / nominal_by / shards
//	                         / sample_size / seed — see dbest.ModelSpec)
//	GET  /models             logical model listing: spec, size, staleness
//	GET  /train-status       catalog contents and memory footprint
//	POST /ingest             append rows to a registered table
//	GET  /staleness          per-model staleness ledger
//	GET  /stats              plan-cache + snapshot + refresh counters and uptime
//	GET  /healthz            liveness probe
//	GET  /debug/pprof/*      runtime profiles (cpu, heap, mutex, block);
//	                         enable contention sampling with -mutexprofile
//	                         and -blockprofile
//
// Unless -refresh 0 disables it, a background refresher retrains models
// whose staleness score (see /staleness) crosses -refresh-threshold, so a
// table fed through /ingest keeps its models current without anyone
// calling /train again.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"time"

	"dbest"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var tables, trains multiFlag
	flag.Var(&tables, "table", "name=path.csv (repeatable)")
	flag.Var(&trains, "train", "table:xcol[,xcol2]:ycol[:groupby] (repeatable)")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		sampleSize = flag.Int("sample", 10000, "training sample size")
		seed       = flag.Int64("seed", 1, "RNG seed")
		load       = flag.String("load", "", "load models from this file")
		workers    = flag.Int("workers", 0, "query-time workers (0 = GOMAXPROCS)")

		refresh    = flag.Duration("refresh", 2*time.Second, "staleness scan interval for background model refresh (0 disables)")
		refreshThr = flag.Float64("refresh-threshold", 0.1, "staleness score that triggers a background retrain")
		refreshMin = flag.Int("refresh-min-rows", 1, "minimum ingested rows before a model is considered stale")
		refreshWrk = flag.Int("refresh-workers", 1, "concurrent background retrains")

		mutexProf = flag.Int("mutexprofile", 0, "mutex contention sampling rate for /debug/pprof/mutex (0 disables, 1 = every event)")
		blockProf = flag.Int("blockprofile", 0, "blocking-event sampling rate in ns for /debug/pprof/block (0 disables)")
	)
	flag.Parse()

	if *mutexProf > 0 {
		runtime.SetMutexProfileFraction(*mutexProf)
	}
	if *blockProf > 0 {
		runtime.SetBlockProfileRate(*blockProf)
	}

	eng := dbest.New(&dbest.Options{Workers: *workers})

	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("bad -table %q, want name=path.csv", spec)
		}
		tb, err := dbest.LoadCSV(name, path)
		if err != nil {
			log.Fatal(err)
		}
		tb.Name = name
		if err := eng.RegisterTable(tb); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %s: %d rows, %d columns", name, tb.NumRows(), len(tb.Columns))
	}
	if *load != "" {
		if err := eng.LoadModels(*load); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded models: %v", eng.ModelKeys())
	}
	for _, spec := range trains {
		parts := strings.Split(spec, ":")
		if len(parts) < 3 || len(parts) > 4 {
			log.Fatalf("bad -train %q, want table:xcols:ycol[:groupby]", spec)
		}
		ms := &dbest.ModelSpec{Table: parts[0], XCols: strings.Split(parts[1], ","), YCol: parts[2],
			SampleSize: *sampleSize, Seed: *seed}
		if len(parts) == 4 {
			ms.GroupBy = parts[3]
		}
		info, err := eng.CreateModel(context.Background(), ms)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trained %s: %d model(s), %d bytes", info.Key, info.NumModels, info.ModelBytes)
	}

	if *refresh > 0 {
		if err := eng.StartRefresher(&dbest.RefreshOptions{
			Interval:  *refresh,
			Threshold: *refreshThr,
			MinRows:   *refreshMin,
			Workers:   *refreshWrk,
		}); err != nil {
			log.Fatal(err)
		}
		defer eng.StopRefresher()
		log.Printf("background refresh: every %v at staleness >= %g (%d worker(s))",
			*refresh, *refreshThr, *refreshWrk)
	}

	log.Printf("dbest-serve listening on %s (%d model sets)", *addr, len(eng.ModelKeys()))
	if err := http.ListenAndServe(*addr, newHandler(eng)); err != nil {
		log.Fatal(fmt.Errorf("dbest-serve: %w", err))
	}
}
