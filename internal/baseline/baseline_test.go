package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dbest/internal/exact"
	"dbest/internal/table"
)

func synth(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	gs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = 5*xs[i] + rng.NormFloat64()*10
		gs[i] = int64(i % 4)
	}
	tb := table.New("t")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	tb.AddIntColumn("g", gs)
	return tb
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestVerdictSimAccuracy(t *testing.T) {
	tb := synth(100000, 1)
	v, err := NewVerdictSim(tb, 10000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := exact.Request{AF: exact.Count, Y: "y",
		Predicates: []exact.Range{{Column: "x", Lb: 20, Ub: 60}}}
	got, err := v.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Query(tb, req)
	if re := relErr(got.Value, want.Value); re > 0.05 {
		t.Fatalf("COUNT rel err = %v", re)
	}
	for _, af := range []exact.AggFunc{exact.Sum, exact.Avg, exact.Variance, exact.StdDev} {
		req.AF = af
		got, err := v.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.Query(tb, req)
		if re := relErr(got.Value, want.Value); re > 0.08 {
			t.Fatalf("%v rel err = %v", af, re)
		}
	}
}

func TestVerdictSimScaling(t *testing.T) {
	tb := synth(20000, 3)
	// scale=1000 simulates a 20M-row logical table.
	v, err := NewVerdictSim(tb, 5000, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.N != 20_000_000 {
		t.Fatalf("N = %v", v.N)
	}
	req := exact.Request{AF: exact.Count, Y: "y",
		Predicates: []exact.Range{{Column: "x", Lb: 0, Ub: 100}}}
	got, _ := v.Query(req)
	if re := relErr(got.Value, 20_000_000); re > 0.01 {
		t.Fatalf("scaled COUNT = %v", got.Value)
	}
	// AVG must NOT be scaled.
	req.AF = exact.Avg
	got, _ = v.Query(req)
	want, _ := exact.Query(tb, req)
	if re := relErr(got.Value, want.Value); re > 0.05 {
		t.Fatalf("AVG rel err = %v", re)
	}
}

func TestVerdictSimGroupBy(t *testing.T) {
	tb := synth(40000, 5)
	v, err := NewVerdictSim(tb, 8000, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	req := exact.Request{AF: exact.Sum, Y: "y", Group: "g",
		Predicates: []exact.Range{{Column: "x", Lb: 10, Ub: 90}}}
	got, err := v.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Query(tb, req)
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("groups: %d vs %d", len(got.Groups), len(want.Groups))
	}
	for g, w := range want.Groups {
		if re := relErr(got.Groups[g], w); re > 0.15 {
			t.Errorf("group %d rel err = %v", g, re)
		}
	}
}

func TestVerdictSimPercentile(t *testing.T) {
	tb := synth(50000, 7)
	v, _ := NewVerdictSim(tb, 10000, 1, 8)
	req := exact.Request{AF: exact.Percentile, Y: "x", P: 0.5,
		Predicates: []exact.Range{{Column: "x", Lb: 0, Ub: 100}}}
	got, err := v.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Value-50) > 3 {
		t.Fatalf("median = %v, want ≈ 50", got.Value)
	}
}

func TestVerdictSimErrors(t *testing.T) {
	if _, err := NewVerdictSim(table.New("e"), 100, 1, 1); err == nil {
		t.Fatal("want error for empty table")
	}
	tb := synth(1000, 9)
	v, _ := NewVerdictSim(tb, 100, 1, 1)
	if _, err := v.Query(exact.Request{AF: exact.Avg, Y: "nope"}); err == nil {
		t.Fatal("want error for missing column")
	}
	if _, err := v.Query(exact.Request{AF: exact.Avg, Y: "y",
		Predicates: []exact.Range{{Column: "x", Lb: 500, Ub: 600}}}); err == nil {
		t.Fatal("want error for empty selection AVG")
	}
	if _, err := v.Query(exact.Request{AF: exact.Avg, Y: "y", Group: "nope"}); err == nil {
		t.Fatal("want error for missing group column")
	}
	if _, err := v.Query(exact.Request{AF: exact.Avg, Y: "y", Group: "x"}); err == nil {
		t.Fatal("want error for float group column")
	}
}

func TestVerdictSimJoinQuery(t *testing.T) {
	// Fact rows reference a 10-row dimension; range over the dimension
	// attribute selects a subset of stores.
	rng := rand.New(rand.NewSource(10))
	n := 50000
	fk := make([]int64, n)
	val := make([]float64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(10))
		val[i] = float64(fk[i])*10 + rng.Float64()
	}
	fact := table.New("fact")
	fact.AddIntColumn("k", fk)
	fact.AddFloatColumn("v", val)
	dim := table.New("dim")
	dk := make([]int64, 10)
	emp := make([]float64, 10)
	for i := range dk {
		dk[i] = int64(i)
		emp[i] = float64(100 + 10*i)
	}
	dim.AddIntColumn("dk", dk)
	dim.AddFloatColumn("emp", emp)

	v, err := NewVerdictSim(fact, 10000, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	req := exact.Request{AF: exact.Count, Y: "v",
		Predicates: []exact.Range{{Column: "emp", Lb: 100, Ub: 140}}}
	got, err := v.JoinQuery(dim, "k", "dk", req)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := table.EquiJoin(fact, dim, "k", "dk")
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Query(joined, req)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(got.Value, want.Value); re > 0.05 {
		t.Fatalf("join COUNT rel err = %v (got %v want %v)", re, got.Value, want.Value)
	}
}

func TestBlinkSimStratifiedAccuracy(t *testing.T) {
	// Heavily skewed groups: stratified sampling should answer rare-group
	// aggregates that a same-size uniform sample gets badly wrong.
	rng := rand.New(rand.NewSource(12))
	var xs, ys []float64
	var gs []int64
	for i := 0; i < 100000; i++ {
		xs = append(xs, rng.Float64()*100)
		ys = append(ys, 10+rng.NormFloat64())
		gs = append(gs, 0)
	}
	for i := 0; i < 200; i++ { // rare group with very different y
		xs = append(xs, rng.Float64()*100)
		ys = append(ys, 500+rng.NormFloat64())
		gs = append(gs, 1)
	}
	tb := table.New("t")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	tb.AddIntColumn("g", gs)

	b, err := NewBlinkSim(tb, "g", 5000, 100, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	req := exact.Request{AF: exact.Sum, Y: "y", Group: "g",
		Predicates: []exact.Range{{Column: "x", Lb: 0, Ub: 100}}}
	got, err := b.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Query(tb, req)
	for g, w := range want.Groups {
		if re := relErr(got.Groups[g], w); re > 0.1 {
			t.Errorf("group %d rel err = %v", g, re)
		}
	}
}

func TestBlinkSimErrors(t *testing.T) {
	tb := synth(1000, 14)
	if _, err := NewBlinkSim(tb, "nope", 100, 10, 1, 1); err == nil {
		t.Fatal("want error for missing stratification column")
	}
}

func TestSampleExact(t *testing.T) {
	tb := synth(50000, 15)
	se, err := NewSampleExact(tb, 10000, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	req := exact.Request{AF: exact.Sum, Y: "y",
		Predicates: []exact.Range{{Column: "x", Lb: 25, Ub: 75}}}
	got, err := se.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Query(tb, req)
	if re := relErr(got.Value, want.Value); re > 0.08 {
		t.Fatalf("SUM rel err = %v", re)
	}
	if se.Stats.Bytes <= 0 || se.Stats.SampleRows != 10000 {
		t.Fatalf("stats = %+v", se.Stats)
	}
}

// Property: VerdictSim COUNT scales linearly with the scale factor.
func TestVerdictScaleLinearityProperty(t *testing.T) {
	tb := synth(5000, 17)
	f := func(seed int64) bool {
		v1, err1 := NewVerdictSim(tb, 1000, 1, seed)
		v2, err2 := NewVerdictSim(tb, 1000, 50, seed)
		if err1 != nil || err2 != nil {
			return false
		}
		req := exact.Request{AF: exact.Count, Y: "y",
			Predicates: []exact.Range{{Column: "x", Lb: 10, Ub: 90}}}
		r1, e1 := v1.Query(req)
		r2, e2 := v2.Query(req)
		if e1 != nil || e2 != nil {
			return false
		}
		return math.Abs(r2.Value-50*r1.Value) < 1e-6*r2.Value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// A NaN predicate value satisfies no range, in the baselines as in the
// exact engine: the sample's NaN row must not be counted.
func TestVerdictSimRejectsNaNPredicateRows(t *testing.T) {
	tb := table.New("t")
	tb.AddFloatColumn("x", []float64{1, 2, math.NaN(), 4})
	tb.AddFloatColumn("y", []float64{10, 20, 30, 40})
	v := &VerdictSim{Name: "t", Sample: tb, N: 4, ratio: 1}
	req := exact.Request{AF: exact.Count, Y: "y", Predicates: []exact.Range{{Column: "x", Lb: 0, Ub: 10}}}
	got, err := v.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Query(tb, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 3 || want.Value != 3 {
		t.Fatalf("COUNT over x in [0, 10] = %v, exact %v; want 3 (the NaN row fails the range)", got.Value, want.Value)
	}
}
