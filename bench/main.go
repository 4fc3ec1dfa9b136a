// Command bench is the repository's benchmark: five serving workloads
// driven from outside the engine — through dbest.Engine's public methods,
// the exported functions of internal/*, and a dbest-serve subprocess over
// loopback — with end-to-end metrics from an untraced window and per-layer
// metrics from a traced one. BENCHMARK.json at the checkout root names the
// command, the workloads and every metric; bench/README.md explains them.
//
//	bash bench/run.sh --workload sliding_spans --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when every
// answer check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: hot_shapes, sliding_spans, path_mix, http_dashboard, ingest_refresh, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same operations")
		seconds = flag.Float64("seconds", 10, "seconds to measure for")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	)
	flag.Parse()
	// SIGINT or SIGTERM cancels the run; every exit path below then stops
	// the server subprocess and removes the temporary files.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		rows: fullRows, probes: 2000, setups: 3,
		root: root, out: filepath.Join(root, "bench", "out"),
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := []string{*name}
	traces := []bool{cfg.trace}
	if *name == "all" {
		names, traces = nil, []bool{false, true}
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, n := range names {
		for _, t := range traces {
			cfg.workload, cfg.trace = n, t
			r, err := runWorkload(ctx, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
				return 2
			}
			if !report(os.Stdout, cfg, r) {
				code = 1
			}
		}
	}
	return code
}

// report prints every metric of the run by name with its unit, then each
// failed check, then the result line. It returns whether the run was
// correct.
func report(out io.Writer, cfg config, r *result) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%t clients=%d nproc=%d gomaxprocs=%d %s samples=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, r.clients, nproc(), runtime.GOMAXPROCS(0), runtime.Version(), r.samples)
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]reading, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		if !finite(v) {
			r.fail("metric %s is not finite", d.name)
			v = 0
		}
		metrics[d.name] = reading{v, d.unit}
		fmt.Fprintf(out, "%-30s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range r.failures {
		fmt.Fprintln(out, "FAILED CHECK:", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	fmt.Fprintf(out, "%s\n", line)
	return r.correct()
}
