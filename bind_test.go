package dbest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Bind-time behaviour of the shape cache: a statement's literals are bound
// when it runs, so the value-dependent rejections the parser used to make
// once per statement must hold for every statement of a cached shape, and
// one statement's literals must never answer another's.

func bindTestEngine(t testing.TB, opts *Options) *Engine {
	t.Helper()
	eng := New(opts)
	if err := eng.RegisterTable(snapTestTable("t", 4000, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &ModelSpec{
		Table: "t", XCols: []string{"x"}, YCol: "y", SampleSize: 1000, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("CREATE SKETCH tx ON t(x) TYPE TOPK K 5"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// rejected lists statements the grammar rejects by value next to a valid
// sibling of the same (or, for TOP and WITHIN, the neighbouring) shape, with
// the error text the parser has always given.
var rejected = []struct{ bad, good, err string }{
	{"SELECT AVG(y) FROM t WHERE x BETWEEN 9 AND 1", "SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 9",
		"sqlparse: BETWEEN bounds reversed (9 > 1)"},
	{"SELECT PERCENTILE(x, 1.5) FROM t", "SELECT PERCENTILE(x, 0.5) FROM t",
		"sqlparse: percentile point 1.5 outside [0, 1]"},
	{"SELECT PERCENTILE(x, 1.5) FROM t WHERE x BETWEEN 100 AND 900", "SELECT PERCENTILE(x, 0.5) FROM t WHERE x BETWEEN 100 AND 900",
		"sqlparse: percentile point 1.5 outside [0, 1]"},
	{"SELECT TOP 0(x) FROM t", "SELECT TOP 3(x) FROM t",
		`sqlparse: TOP wants a positive integer rank count, got "0" (near position 11)`},
	{"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 9 WITHIN 0%", "SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 9 WITHIN 50%",
		"sqlparse: WITHIN tolerance 0% outside (0, 100]"},
}

func TestBindTimeValidationParity(t *testing.T) {
	// Each entry point, as a function from a statement to its error.
	entries := map[string]func(e *Engine, sql string) error{
		"Query":   func(e *Engine, sql string) error { _, err := e.Query(sql); return err },
		"Prepare": func(e *Engine, sql string) error { _, err := e.Prepare(sql); return err },
		"Explain": func(e *Engine, sql string) error { _, err := e.Explain(sql); return err },
		"Exec":    func(e *Engine, sql string) error { _, err := e.Exec(sql); return err },
		"QueryBatch": func(e *Engine, sql string) error {
			return e.QueryBatch([]string{sql})[0].Err
		},
	}
	// Every case starts from an engine that has planned nothing: a fresh one
	// over the trained engine's snapshot.
	base := bindTestEngine(t, nil)
	fresh := func(opts *Options) *Engine {
		e := New(opts)
		e.snap.Store(base.snap.Load())
		return e
	}
	for _, c := range rejected {
		for name, call := range entries {
			for _, opts := range []*Options{nil, {PlanCacheSize: -1}} {
				// Bad first: rejected cold, and nothing poisoned is cached —
				// the valid sibling then plans and answers.
				eng := fresh(opts)
				if err := call(eng, c.bad); err == nil || err.Error() != c.err {
					t.Fatalf("%s cold %q: err = %v, want %q", name, c.bad, err, c.err)
				}
				if st := eng.PlanCacheStats(); st.Entries != 0 {
					t.Fatalf("%s: rejected %q left a cached shape: %+v", name, c.bad, st)
				}
				if err := call(eng, c.good); err != nil {
					t.Fatalf("%s %q after its rejected sibling: %v", name, c.good, err)
				}
				// Good first: the shape is cached, and the bad statement is
				// rejected all the same, not served from it.
				eng = fresh(opts)
				if err := call(eng, c.good); err != nil {
					t.Fatalf("%s %q: %v", name, c.good, err)
				}
				if err := call(eng, c.bad); err == nil || err.Error() != c.err {
					t.Fatalf("%s %q after its valid sibling: err = %v, want %q", name, c.bad, err, c.err)
				}
				if err := call(eng, c.good); err != nil {
					t.Fatalf("%s %q after the rejection: %v", name, c.good, err)
				}
			}
		}
	}
	// RunBatch binds spans into a prepared statement: a reversed span is
	// rejected like the statement that spells it out, alone.
	p, err := base.Prepare(rejected[0].good)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.RunBatch([]Span{{Lb: 1, Ub: 9}, {Lb: 9, Ub: 1}})
	if err != nil || out[0].Err != nil || out[1].Err == nil || out[1].Err.Error() != rejected[0].err {
		t.Fatalf("RunBatch: %v, items %+v", err, out)
	}
}

// TestNumericSpellingsBindAlike: however a number is spelled it binds the
// same value — one shape, bit-identical answers.
func TestNumericSpellingsBindAlike(t *testing.T) {
	eng := bindTestEngine(t, nil)
	var want *Result
	for _, spelled := range []string{"100", "100.0", "1e2", "+100", "1.0E+2", "100."} {
		res, err := eng.Query("SELECT SUM(y), PERCENTILE(x, 0.5) FROM t WHERE x BETWEEN " + spelled + " AND 900")
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
		}
		if err := sameAnswer(res, nil, want, nil); err != nil {
			t.Fatalf("lower bound spelled %s: %v", spelled, err)
		}
	}
	if st := eng.PlanCacheStats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 5 {
		t.Fatalf("six spellings of one statement: %+v, want one shape planned once", st)
	}
}

// benchTemplates are the benchmark's five plain-model templates (bench/
// workloads.go: three aggregates of y, the two density-based ones of x).
var benchTemplates = []string{
	"SELECT COUNT(y) FROM t WHERE x BETWEEN %g AND %g",
	"SELECT SUM(y) FROM t WHERE x BETWEEN %g AND %g",
	"SELECT AVG(y) FROM t WHERE x BETWEEN %g AND %g",
	"SELECT VARIANCE(x) FROM t WHERE x BETWEEN %g AND %g",
	"SELECT STDDEV(x) FROM t WHERE x BETWEEN %g AND %g",
}

// TestNoBindLeakageUnderConcurrency runs one shape from many goroutines,
// each with its own literals, while retrains keep bumping the generation
// (every bump drops the cached shape, so readers race the re-plan too).
// The retrains alternate between two models; every answer must be, bit for
// bit, what its own statement answers sequentially under one of the two —
// never another goroutine's literals, never a mix. Then: fresh literals
// cost no plans — five templates, five cached shapes, five misses.
func TestNoBindLeakageUnderConcurrency(t *testing.T) {
	eng := New(nil)
	if err := eng.RegisterTable(snapTestTable("t", 4000, 6)); err != nil {
		t.Fatal(err)
	}
	train := func(scale float64) {
		t.Helper()
		if _, err := eng.CreateModel(context.Background(), &ModelSpec{
			Table: "t", XCols: []string{"x"}, YCol: "y", SampleSize: 800, Seed: 6,
			Scale: scale,
		}); err != nil {
			t.Error(err)
		}
	}
	const readers, perReader = 8, 24
	sqls := make([][]string, readers)
	want := map[string][2]*Result{} // per statement: its answer under each model
	for r := range sqls {
		for i := 0; i < perReader; i++ {
			lo := float64(10 + 37*r + i)
			sqls[r] = append(sqls[r], fmt.Sprintf("SELECT COUNT(*), SUM(y) FROM t WHERE x BETWEEN %g AND %g", lo, lo+300+float64(7*r)))
		}
	}
	for m, scale := range []float64{1, 3} {
		train(scale)
		for _, batch := range sqls {
			for _, sql := range batch {
				res, err := eng.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				w := want[sql]
				w[m] = res
				want[sql] = w
			}
		}
	}

	var stop atomic.Bool
	var trainer, wg sync.WaitGroup
	trainer.Add(1)
	go func() {
		defer trainer.Done()
		for i := 0; !stop.Load(); i++ {
			train([]float64{1, 3}[i%2])
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, sql := range sqls[r] {
					res, err := eng.Query(sql)
					if err != nil {
						t.Errorf("%s: %v", sql, err)
						return
					}
					w := want[sql]
					if sameAnswer(res, nil, w[0], nil) != nil && sameAnswer(res, nil, w[1], nil) != nil {
						t.Errorf("%s answered %+v: neither %+v nor %+v", sql, res.Aggregates, w[0].Aggregates, w[1].Aggregates)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	trainer.Wait()
	if t.Failed() {
		return
	}
	if st := eng.PlanCacheStats(); st.GenerationWipes == 0 {
		t.Fatalf("no retrain landed while the readers ran: %+v", st)
	}

	fresh := bindTestEngine(t, nil)
	const n = 10000
	for i := 0; i < n; i++ {
		lo := float64(i%700) + float64(i)/n
		if _, err := fresh.Query(fmt.Sprintf(benchTemplates[i%len(benchTemplates)], lo, lo+250)); err != nil {
			t.Fatal(err)
		}
	}
	if st := fresh.PlanCacheStats(); st.Entries != 5 || st.Misses != 5 || st.Resets != 0 || st.Hits != n-5 {
		t.Fatalf("%d fresh-literal queries over 5 templates: %+v, want 5 entries, 5 misses, no resets", n, st)
	}
}

// TestQueryAllocCeiling holds the serve path to its allocation budget
// (ROADMAP item 2): a query on a cached plain shape — the lexer pass, the
// cache probe, the bind vector, the execution and its result — stays within
// 8 allocations, whether or not its literals were seen before. Before shape
// keys a fresh-literal query cost 52 here (62.6 on the benchmark's mix) and a
// repeated one 18.
func TestQueryAllocCeiling(t *testing.T) {
	eng := bindTestEngine(t, nil)
	sqls := make([]string, 512)
	for i := range sqls {
		lo := 100 + float64(i)*0.77
		sqls[i] = fmt.Sprintf(benchTemplates[i%len(benchTemplates)], lo, lo+250.5)
	}
	for _, sql := range sqls[:len(benchTemplates)] { // plan the five shapes
		if _, err := eng.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	fresh := testing.AllocsPerRun(500, func() {
		if _, err := eng.Query(sqls[i%len(sqls)]); err != nil {
			t.Error(err)
		}
		i++
	})
	repeated := testing.AllocsPerRun(500, func() {
		if _, err := eng.Query(sqls[0]); err != nil {
			t.Error(err)
		}
	})
	if fresh > 8 || repeated > 8 {
		t.Fatalf("allocs per query: %v with fresh literals, %v repeated; the ceiling is 8", fresh, repeated)
	}
	if st := eng.PlanCacheStats(); st.Entries != len(benchTemplates) || int(st.Misses) != len(benchTemplates) {
		t.Fatalf("the measured queries were not cache hits: %+v", st)
	}
}
