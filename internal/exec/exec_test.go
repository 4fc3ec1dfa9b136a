package exec

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbest/internal/core"
	"dbest/internal/exact"
	"dbest/internal/sqlparse"
	"dbest/internal/table"
)

// resolver is a TableResolver over a fixed map, standing in for the engine.
type resolver map[string]*table.Table

func (r resolver) Table(name string) *table.Table { return r[name] }

func linearTable(t *testing.T, n int) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] + 10*rng.NormFloat64()
	}
	tb := table.New("lin")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

func trainLinear(t *testing.T, tb *table.Table) *core.ModelSet {
	t.Helper()
	ms, err := core.Train(tb, []string{"x"}, "y", &core.TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestModelPlanRun(t *testing.T) {
	tb := linearTable(t, 20000)
	ms := trainLinear(t, tb)
	op := NewModelEval("AVG(y)", exact.Avg, ms, []Range{{Lb: 0, Ub: 1}}, false, NoSlot)
	plan := NewPlan(PathModel, "", NewProject(PathModel, []AggOperator{op}, nil))
	binds := Binds{{Num: 5000}, {Num: 10000}}

	res, err := plan.Run(&Env{Binds: binds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" || len(res.Aggregates) != 1 {
		t.Fatalf("result = %+v", res)
	}
	// y = 3x + noise, so AVG(y) over x in [5000, 10000] ≈ 22500.
	if got := res.Aggregates[0].Value; math.Abs(got-22500) > 1500 {
		t.Fatalf("AVG(y) = %v, want ≈ 22500", got)
	}
	if keys := plan.ModelKeys(); len(keys) != 1 || keys[0] != ms.Key() {
		t.Fatalf("model keys = %v", keys)
	}
	tree := plan.Render(binds)
	for _, want := range []string{"Project [model]", "ModelEval AVG(y)", "range=[5000,10000]"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestModelPlanSpanOverride: one plan answers each execution over the span
// in that execution's bind vector.
func TestModelPlanSpanOverride(t *testing.T) {
	tb := linearTable(t, 20000)
	ms := trainLinear(t, tb)
	op := NewModelEval("COUNT(y)", exact.Count, ms, []Range{{Lb: 0, Ub: 1}}, false, NoSlot)
	plan := NewPlan(PathModel, "", NewProject(PathModel, []AggOperator{op}, nil))

	for _, c := range []struct{ ub, want float64 }{{999, 1000}, {9999, 10000}} {
		res, err := plan.Run(&Env{Binds: Binds{{Num: 0}, {Num: c.ub}}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Aggregates[0].Value; math.Abs(got-c.want) > 0.12*c.want {
			t.Fatalf("COUNT over [0,%g] = %v, want ≈ %g", c.ub, got, c.want)
		}
	}
}

func TestExactPlanRunAndRender(t *testing.T) {
	tb := linearTable(t, 1000)
	q, err := sqlparse.Parse("SELECT COUNT(y), AVG(x) FROM lin WHERE x BETWEEN 0 AND 499")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExactPlan(q, "no model")
	if err != nil {
		t.Fatal(err)
	}
	binds := Binds{{Num: 0}, {Num: 499}}
	res, err := plan.Run(&Env{Tables: resolver{"lin": tb}, Binds: binds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" || len(res.Aggregates) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if got := res.Aggregates[0].Value; got != 500 {
		t.Fatalf("COUNT = %v, want 500", got)
	}
	if got := res.Aggregates[1].Value; math.Abs(got-249.5) > 1e-9 {
		t.Fatalf("AVG(x) = %v, want 249.5", got)
	}
	tree := plan.Render(binds)
	for _, want := range []string{"Project [exact]", "ExactScan COUNT(y)", "ExactScan AVG(x)", "TableScan lin"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	if plan.ModelKeys() != nil {
		t.Fatalf("exact plan has model keys: %v", plan.ModelKeys())
	}
}

// TestExactPlanSpanOverride: the scan filters by the executing statement's
// binds, not by the literals of the query the plan was compiled from.
func TestExactPlanSpanOverride(t *testing.T) {
	tb := linearTable(t, 1000)
	q, err := sqlparse.Parse("SELECT COUNT(y) FROM lin WHERE x BETWEEN 0 AND 99")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExactPlan(q, "no model")
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(&Env{Tables: resolver{"lin": tb}, Binds: Binds{{Num: 0}, {Num: 249}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Aggregates[0].Value; got != 250 {
		t.Fatalf("COUNT over the rebound range = %v, want 250", got)
	}
}

func TestExactPlanUnregisteredTable(t *testing.T) {
	q, err := sqlparse.Parse("SELECT COUNT(y) FROM nosuch WHERE x BETWEEN 0 AND 1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExactPlan(q, "no model")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(&Env{Tables: resolver{}, Binds: Binds{{Num: 0}, {Num: 1}}}); err == nil ||
		!strings.Contains(err.Error(), `table "nosuch" is not registered`) {
		t.Fatalf("err = %v, want unregistered-table error", err)
	}
}

func TestExactPlanJoinRender(t *testing.T) {
	q, err := sqlparse.Parse("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE x BETWEEN 0 AND 1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExactPlan(q, "no model")
	if err != nil {
		t.Fatal(err)
	}
	tree := plan.Render(Binds{{Num: 0}, {Num: 1}})
	for _, want := range []string{"JoinEval on a.k = b.k", "TableScan a", "TableScan b"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}
