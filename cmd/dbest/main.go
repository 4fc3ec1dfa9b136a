// Command dbest is the interactive/one-shot client of the DBEst engine:
// it loads CSV tables, trains models for column sets of interest, persists
// and reloads model catalogs, and answers SQL queries — from the models
// when possible, from the exact engine otherwise.
//
// Usage:
//
//	dbest -table sales=sales.csv \
//	      -train 'sales:date:price' \
//	      -query 'SELECT AVG(price) FROM sales WHERE date BETWEEN 100 AND 200'
//
//	dbest -table sales=sales.csv -train 'sales:date:price:store' -save models.gob
//	dbest -load models.gob -query '...'
//
// With no -query, dbest reads statements from stdin, one per line. Besides
// SQL queries and EXPLAIN <sql>, the stdin loop accepts the declarative
// model-definition statements
//
//	CREATE MODEL <name> ON <tbl>(x[,x2]; y) [JOIN <tbl2> ON lk = rk
//	    [FRACTION n/d]] [GROUP BY c] [NOMINAL BY c] [SHARDS k]
//	    [SAMPLE n] [SEED s]           train models from a declarative spec
//	CREATE SKETCH <name> ON <tbl>(col) [TYPE HLL|TOPK] [PRECISION p] [K k]
//	                              build a mergeable sketch for
//	                              COUNT(DISTINCT col) / TOP k(col)
//	DROP MODEL <name>             drop a model or sketch by name or key
//	SHOW MODELS                   list models with spec, size and staleness
//
// and ingestion / training statements:
//
//	APPEND <table> v1,v2,...     append one row (values in column order)
//	INGEST <table> <path.csv>    append a CSV micro-batch (schema must match)
//	STALENESS                    print the per-model staleness ledger
//	TRAIN <table>:<xcols>:<ycol>[:<groupby>] [SHARDS <k>]
//	                             colon-separated form of CREATE MODEL
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dbest"
	"dbest/internal/table"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var tables, trains multiFlag
	flag.Var(&tables, "table", "name=path.csv (repeatable)")
	flag.Var(&trains, "train", "table:xcol[,xcol2]:ycol[:groupby] (repeatable)")
	var (
		sampleSize = flag.Int("sample", 10000, "training sample size")
		seed       = flag.Int64("seed", 1, "RNG seed")
		save       = flag.String("save", "", "save trained models to this file")
		load       = flag.String("load", "", "load models from this file")
		query      = flag.String("query", "", "one-shot SQL query (otherwise read stdin)")
		workers    = flag.Int("workers", 0, "query-time workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	eng := dbest.New(&dbest.Options{Workers: *workers})
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "dbest: %v\n", err)
		os.Exit(1)
	}

	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("bad -table %q, want name=path.csv", spec))
		}
		tb, err := dbest.LoadCSV(name, path)
		if err != nil {
			fail(err)
		}
		tb.Name = name
		if err := eng.RegisterTable(tb); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d rows, %d columns\n", name, tb.NumRows(), len(tb.Columns))
	}
	if *load != "" {
		if err := eng.LoadModels(*load); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "loaded models: %v\n", eng.ModelKeys())
	}
	// base carries the -sample/-seed defaults every -train flag and TRAIN
	// statement starts from.
	base := dbest.ModelSpec{SampleSize: *sampleSize, Seed: *seed}
	for _, arg := range trains {
		spec, ok := trainSpec(arg, base)
		if !ok {
			fail(fmt.Errorf("bad -train %q, want table:xcols:ycol[:groupby]", arg))
		}
		info, err := eng.CreateModel(context.Background(), spec)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "trained %s: %d model(s), %d bytes, %s\n",
			info.Key, info.NumModels, info.ModelBytes, timings(info))
	}
	if *save != "" {
		if err := eng.SaveModels(*save); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "saved models to %s\n", *save)
	}

	runOne := func(sql string) {
		// Ingestion and training statements: APPEND / INGEST / STALENESS /
		// TRAIN.
		if handled := runIngestStatement(eng, sql, base); handled {
			return
		}
		// EXPLAIN <query> prints the physical operator tree instead of
		// running the query.
		if rest, ok := cutExplain(sql); ok {
			plan, err := eng.Explain(rest)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				return
			}
			fmt.Printf("path: %s\n", plan.Path)
			if plan.Reason != "" {
				fmt.Printf("reason: %s\n", plan.Reason)
			}
			for _, k := range plan.ModelKeys {
				fmt.Printf("model: %s\n", k)
			}
			fmt.Print(plan.Tree)
			return
		}
		res, err := eng.Query(sql)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		for _, agg := range res.Aggregates {
			if len(agg.TopK) > 0 {
				fmt.Printf("%s:\n", agg.Name)
				for _, e := range agg.TopK {
					fmt.Printf("  %-16s %d\n", e.Value, e.Count)
				}
				continue
			}
			if len(agg.Groups) == 0 {
				fmt.Printf("%s = %.6g%s\n", agg.Name, agg.Value, boundsSuffix(agg.PredRelErr, agg.CI))
				continue
			}
			fmt.Printf("%s by group:\n", agg.Name)
			for _, g := range agg.Groups {
				fmt.Printf("  %8d  %.6g%s\n", g.Group, g.Value, boundsSuffix(g.PredRelErr, g.CI))
			}
		}
		fmt.Printf("-- source=%s elapsed=%v\n", res.Source, res.Elapsed.Round(1000))
	}

	if *query != "" {
		runOne(*query)
		return
	}
	if len(trains) == 0 && *load == "" && len(tables) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		runOne(line)
	}
}

// boundsSuffix renders a model answer's error bounds ("  ±1.2% [lo, hi]"),
// or "" when the answer carries none (exact/sketch paths, old catalogs).
func boundsSuffix(relErr float64, ci [2]float64) string {
	if relErr <= 0 {
		return ""
	}
	return fmt.Sprintf("  ±%.1f%% [%.6g, %.6g]", relErr*100, ci[0], ci[1])
}

// runIngestStatement handles the non-SQL statements of the stdin loop
// (ingestion and training), reporting whether line was one of them. base
// carries the CLI's -sample/-seed defaults for TRAIN.
func runIngestStatement(eng *dbest.Engine, line string, base dbest.ModelSpec) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	switch strings.ToUpper(fields[0]) {
	case "CREATE", "DROP", "SHOW":
		// Declarative model-definition statements run through the engine's
		// parse → plan → execute path (Engine.Exec), like queries do. The
		// -sample/-seed flags do not apply here: the statement's own SAMPLE
		// and SEED clauses (or the engine defaults) govern.
		runModelStatement(eng, line)
		return true
	case "TRAIN":
		runTrainStatement(eng, fields[1:], base)
		return true
	case "STALENESS":
		for _, st := range eng.ModelStaleness() {
			fmt.Printf("%s: score=%.3f ingested=%d/%d replaced=%d/%d refreshes=%d",
				st.Key, st.Score, st.IngestedRows, st.BaseRows,
				st.ReservoirReplaced, st.ReservoirSize, st.Refreshes)
			if st.Shards > 0 {
				fmt.Printf(" shard=%d/%d", st.Shard, st.Shards)
			}
			if st.LastError != "" {
				fmt.Printf(" last_error=%q", st.LastError)
			}
			fmt.Println()
		}
		return true
	case "APPEND":
		// Split off the keyword and table name but keep the value list
		// verbatim: whitespace inside quoted strings must survive.
		_, rest := cutToken(line)
		name, vals := cutToken(rest)
		if name == "" || vals == "" {
			fmt.Fprintln(os.Stderr, "error: usage: APPEND <table> v1,v2,...")
			return true
		}
		tb := eng.Table(name)
		if tb == nil {
			fmt.Fprintf(os.Stderr, "error: table %q is not registered\n", name)
			return true
		}
		row, err := parseRow(tb, vals)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		res, err := eng.Append(name, [][]interface{}{row})
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		if res.Rejected > 0 {
			fmt.Fprintf(os.Stderr, "error: %s\n", res.Errors[0].Err)
			return true
		}
		fmt.Printf("appended 1 row to %s (%d rows)\n", name, res.NumRows)
		return true
	case "INGEST":
		if len(fields) != 3 {
			fmt.Fprintln(os.Stderr, "error: usage: INGEST <table> <path.csv>")
			return true
		}
		name, path := fields[1], fields[2]
		tb := eng.Table(name)
		if tb == nil {
			fmt.Fprintf(os.Stderr, "error: table %q is not registered\n", name)
			return true
		}
		// Parse the CSV against the registered table's schema — re-inferring
		// types from the batch's first row would reject valid batches (e.g.
		// a FLOAT64 column whose first value happens to look integral).
		rows, err := readCSVRows(tb, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		res, err := eng.Append(name, rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return true
		}
		if res.Rejected > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d row(s) rejected (first: %s)\n",
				res.Rejected, res.Errors[0].Err)
		}
		fmt.Printf("ingested %d rows into %s (%d rows)\n", res.Appended, name, res.NumRows)
		return true
	}
	return false
}

// runModelStatement executes one CREATE MODEL / DROP MODEL / SHOW MODELS
// statement through Engine.Exec and prints its result.
func runModelStatement(eng *dbest.Engine, line string) {
	res, err := eng.Exec(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	switch res.Kind {
	case "create-model":
		info := res.Train
		suffix := ""
		if info.Shards > 1 {
			suffix = fmt.Sprintf(" across %d shards", info.Shards)
		}
		fmt.Printf("created model %s (%s): %d model(s)%s, %d bytes, %s\n",
			res.Spec.Name, info.Key, info.NumModels, suffix, info.ModelBytes, timings(info))
	case "create-sketch":
		fmt.Printf("created sketch %s (%s): %d bytes over %d rows\n",
			res.Spec.Name, res.Train.Key, res.Train.ModelBytes, res.Train.SampleRows)
	case "drop-model":
		fmt.Printf("dropped %d model set(s): %s\n", len(res.Dropped), strings.Join(res.Dropped, ", "))
	case "show-models":
		if len(res.Models) == 0 {
			fmt.Println("no models")
			return
		}
		for _, m := range res.Models {
			fmt.Printf("%s", m.Key)
			if m.Name != "" {
				fmt.Printf(" name=%s", m.Name)
			}
			if m.Shards > 1 {
				fmt.Printf(" shards=%d", m.Shards)
			}
			if m.Type != "" {
				fmt.Printf(" type=%s absorbed=%d bytes=%d", m.Type, m.AbsorbedRows, m.Bytes)
				if m.Spec != nil {
					fmt.Printf(" def=%q", m.Spec.Summary())
				}
				fmt.Println()
				continue
			}
			fmt.Printf(" models=%d bytes=%d", m.NumModels, m.Bytes)
			if m.Tracked {
				fmt.Printf(" staleness=%.3f", m.Staleness)
			} else {
				fmt.Printf(" untracked")
			}
			if m.Spec != nil {
				fmt.Printf(" def=%q", m.Spec.Summary())
			}
			fmt.Println()
		}
	}
}

// trainSpec parses the colon-separated model definition the -train flag and
// the TRAIN statement share, table:xcols:ycol[:groupby], into base.
func trainSpec(arg string, base dbest.ModelSpec) (*dbest.ModelSpec, bool) {
	parts := strings.Split(arg, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return nil, false
	}
	base.Table, base.XCols, base.YCol = parts[0], strings.Split(parts[1], ","), parts[2]
	if len(parts) == 4 {
		base.GroupBy = parts[3]
	}
	return &base, true
}

// runTrainStatement handles TRAIN <table>:<xcols>:<ycol>[:<groupby>]
// [SHARDS <k>]: plain (or grouped) training, or a k-shard range ensemble
// over a single x column.
func runTrainStatement(eng *dbest.Engine, args []string, base dbest.ModelSpec) {
	usage := "usage: TRAIN <table>:<xcols>:<ycol>[:<groupby>] [SHARDS <k>]"
	switch len(args) {
	case 1:
	case 3:
		if !strings.EqualFold(args[1], "SHARDS") {
			fmt.Fprintf(os.Stderr, "error: %s\n", usage)
			return
		}
		k, err := strconv.Atoi(args[2])
		if err != nil || k < 1 {
			fmt.Fprintf(os.Stderr, "error: SHARDS wants a positive integer, got %q\n", args[2])
			return
		}
		base.Shards = k
	default:
		fmt.Fprintf(os.Stderr, "error: %s\n", usage)
		return
	}
	spec, ok := trainSpec(args[0], base)
	if !ok {
		fmt.Fprintf(os.Stderr, "error: %s\n", usage)
		return
	}
	info, err := eng.CreateModel(context.Background(), spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	suffix := ""
	if info.Shards > 1 {
		suffix = fmt.Sprintf(" across %d shards", info.Shards)
	}
	fmt.Printf("trained %s: %d model(s)%s, %d bytes, %s\n",
		info.Key, info.NumModels, suffix, info.ModelBytes, timings(info))
}

// timings renders a build's sampling and training time, and the training
// time by stage — summed over the model pairs built, so above the wall-clock
// train time when groups or shards trained in parallel.
func timings(info *dbest.TrainInfo) string {
	st := info.Stages
	return fmt.Sprintf("sample %v + train %v (fit %v, grid %v, bounds %v)",
		info.SampleTime.Round(1e6), info.TrainTime.Round(1e6),
		(st.Density + st.Regressor).Round(1e6), st.Grid.Round(1e6), st.Bounds.Round(1e6))
}

// readCSVRows reads a header-carrying CSV whose columns must match tb's
// schema by name and order, converting each record to an Append-shaped row
// typed per the table's columns.
func readCSVRows(tb *dbest.Table, path string) ([][]interface{}, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%s: read header: %v", path, err)
	}
	names := tb.ColumnNames()
	if len(header) != len(names) {
		return nil, fmt.Errorf("%s: %d columns, table %s has %d", path, len(header), tb.Name, len(names))
	}
	for j, h := range header {
		if h != names[j] {
			return nil, fmt.Errorf("%s: column %d is %q, table %s has %q", path, j, h, tb.Name, names[j])
		}
	}
	var rows [][]interface{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		row, err := convertRecord(tb, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: row %d: %v", path, len(rows)+1, err)
		}
		rows = append(rows, row)
	}
}

// cutToken splits off the first whitespace-delimited token of s, returning
// it and the trimmed remainder.
func cutToken(s string) (tok, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

// parseRow parses one comma-separated row against tb's column types, with
// CSV quoting rules: a value containing commas or meaningful whitespace
// can be double-quoted ("New York, NY"); a single-quoted string value has
// its quotes stripped as a convenience.
func parseRow(tb *dbest.Table, s string) ([]interface{}, error) {
	cr := csv.NewReader(strings.NewReader(s))
	cr.TrimLeadingSpace = true
	parts, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("parse row: %v", err)
	}
	return convertRecord(tb, parts)
}

// convertRecord types one CSV-split record against tb's columns.
func convertRecord(tb *dbest.Table, parts []string) ([]interface{}, error) {
	if len(parts) != len(tb.Columns) {
		return nil, fmt.Errorf("row has %d values, table %s has %d columns", len(parts), tb.Name, len(tb.Columns))
	}
	row := make([]interface{}, len(parts))
	for j, p := range parts {
		c := tb.Columns[j]
		switch c.Type {
		case table.Int64:
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("column %s: %v", c.Name, err)
			}
			row[j] = v
		case table.Float64:
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("column %s: %v", c.Name, err)
			}
			row[j] = v
		default:
			p = strings.TrimSpace(p)
			if len(p) >= 2 && p[0] == '\'' && p[len(p)-1] == '\'' {
				p = p[1 : len(p)-1]
			}
			row[j] = p
		}
	}
	return row, nil
}

// cutExplain strips a leading EXPLAIN keyword (any case) from sql,
// reporting whether it was present.
func cutExplain(sql string) (string, bool) {
	trimmed := strings.TrimSpace(sql)
	if len(trimmed) < 8 || !strings.EqualFold(trimmed[:7], "EXPLAIN") {
		return sql, false
	}
	rest := trimmed[7:]
	if rest[0] != ' ' && rest[0] != '\t' {
		return sql, false
	}
	return strings.TrimSpace(rest), true
}
