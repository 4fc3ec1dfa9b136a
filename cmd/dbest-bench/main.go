// Command dbest-bench regenerates the paper's evaluation figures. Each
// experiment prints the same series the corresponding figure plots, then
// note: lines quoting the paper's numbers beside ours (see README,
// "Reproducing the paper's evaluation").
//
// Usage:
//
//	dbest-bench -list
//	dbest-bench -run fig2,fig3
//	dbest-bench -run all -rows 1000000 -samples 10000,100000 -peraf 50
//
// The serving benchmark is not here: it is the bench/ module, run with
// `bash bench/run.sh` (see BENCHMARK.json and bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dbest/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments and exit")
		run     = flag.String("run", "", "comma-separated experiment IDs, or 'all'")
		rows    = flag.Int("rows", 400_000, "physical fact-table rows")
		scale   = flag.Float64("scale", 1, "logical rows per physical row")
		samples = flag.String("samples", "10000,100000", "comma-separated sample sizes")
		perAF   = flag.Int("peraf", 20, "random queries per aggregate function")
		seed    = flag.Int64("seed", 1, "deterministic RNG seed")
		workers = flag.Int("workers", 0, "parallel evaluation workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Describe(id))
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "dbest-bench: use -list to see experiments, -run <ids|all> to execute")
		os.Exit(2)
	}

	var sizes []int
	for _, s := range strings.Split(*samples, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "dbest-bench: bad sample size %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}
	cfg := experiments.Config{
		Rows: *rows, Scale: *scale, SampleSizes: sizes,
		PerAF: *perAF, Seed: *seed, Workers: *workers,
	}

	var ids []string
	if *run == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	failed := 0
	for _, id := range ids {
		fr, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbest-bench: %v\n", err)
			failed++
			continue
		}
		fr.Print(os.Stdout)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
