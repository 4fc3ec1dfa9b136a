package exact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"dbest/internal/table"
)

func fixture() *table.Table {
	tb := table.New("t")
	tb.AddFloatColumn("x", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	tb.AddFloatColumn("y", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	tb.AddIntColumn("g", []int64{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	return tb
}

func TestCountSumAvg(t *testing.T) {
	tb := fixture()
	pred := []Range{{"x", 3, 7}} // rows 3..7 → y = 30..70
	cases := []struct {
		af   AggFunc
		want float64
	}{
		{Count, 5},
		{Sum, 250},
		{Avg, 50},
	}
	for _, tc := range cases {
		r, err := Query(tb, Request{AF: tc.af, Y: "y", Predicates: pred})
		if err != nil {
			t.Fatalf("%v: %v", tc.af, err)
		}
		if r.Value != tc.want {
			t.Errorf("%v = %v, want %v", tc.af, r.Value, tc.want)
		}
	}
}

func TestVarianceStdDev(t *testing.T) {
	tb := fixture()
	pred := []Range{{"x", 1, 10}}
	r, err := Query(tb, Request{AF: Variance, Y: "y", Predicates: pred})
	if err != nil {
		t.Fatal(err)
	}
	// Population variance of 10..100 step 10 = 825.
	if math.Abs(r.Value-825) > 1e-9 {
		t.Fatalf("VARIANCE = %v, want 825", r.Value)
	}
	r2, err := Query(tb, Request{AF: StdDev, Y: "y", Predicates: pred})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.Value-math.Sqrt(825)) > 1e-9 {
		t.Fatalf("STDDEV = %v", r2.Value)
	}
}

func TestPercentile(t *testing.T) {
	tb := fixture()
	r, err := Query(tb, Request{AF: Percentile, Y: "x", Predicates: []Range{{"x", 1, 10}}, P: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-5.5) > 1e-9 {
		t.Fatalf("median = %v, want 5.5", r.Value)
	}
	r0, _ := Query(tb, Request{AF: Percentile, Y: "x", Predicates: []Range{{"x", 1, 10}}, P: 0})
	r1, _ := Query(tb, Request{AF: Percentile, Y: "x", Predicates: []Range{{"x", 1, 10}}, P: 1})
	if r0.Value != 1 || r1.Value != 10 {
		t.Fatalf("extremes: %v %v", r0.Value, r1.Value)
	}
}

func TestGroupBy(t *testing.T) {
	tb := fixture()
	r, err := Query(tb, Request{AF: Sum, Y: "y", Predicates: []Range{{"x", 1, 10}}, Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 2 {
		t.Fatalf("groups = %d", len(r.Groups))
	}
	if r.Groups[0] != 10+30+50+70+90 {
		t.Fatalf("group 0 = %v", r.Groups[0])
	}
	if r.Groups[1] != 20+40+60+80+100 {
		t.Fatalf("group 1 = %v", r.Groups[1])
	}
}

func TestMultiPredicate(t *testing.T) {
	tb := fixture()
	r, err := Query(tb, Request{AF: Count, Y: "y",
		Predicates: []Range{{"x", 2, 9}, {"y", 40, 70}}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 4 {
		t.Fatalf("count = %v, want 4", r.Value)
	}
}

func TestEmptySelection(t *testing.T) {
	tb := fixture()
	r, err := Query(tb, Request{AF: Count, Y: "y", Predicates: []Range{{"x", 100, 200}}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 {
		t.Fatalf("count = %v", r.Value)
	}
	if _, err := Query(tb, Request{AF: Avg, Y: "y", Predicates: []Range{{"x", 100, 200}}}); err == nil {
		t.Fatal("AVG over empty selection should error")
	}
	if _, err := Query(tb, Request{AF: Percentile, Y: "y", Predicates: []Range{{"x", 100, 200}}, P: 0.5}); err == nil {
		t.Fatal("PERCENTILE over empty selection should error")
	}
}

func TestErrors(t *testing.T) {
	tb := fixture()
	if _, err := Query(tb, Request{AF: Count, Y: "nope"}); err == nil {
		t.Fatal("want error for missing y")
	}
	if _, err := Query(tb, Request{AF: Count, Y: "y", Predicates: []Range{{"nope", 0, 1}}}); err == nil {
		t.Fatal("want error for missing predicate column")
	}
	if _, err := Query(tb, Request{AF: Count, Y: "y", Group: "nope"}); err == nil {
		t.Fatal("want error for missing group column")
	}
	if _, err := Query(tb, Request{AF: Count, Y: "y", Group: "x"}); err == nil {
		t.Fatal("want error for float group column")
	}
}

func TestParseAggFunc(t *testing.T) {
	for name, want := range map[string]AggFunc{
		"COUNT": Count, "SUM": Sum, "AVG": Avg,
		"VARIANCE": Variance, "STDDEV": StdDev, "PERCENTILE": Percentile,
	} {
		got, err := ParseAggFunc(name)
		if err != nil || got != want {
			t.Errorf("ParseAggFunc(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("String() = %q, want %q", got.String(), name)
		}
	}
	if _, err := ParseAggFunc("MEDIAN"); err == nil {
		t.Fatal("want error for unknown AF")
	}
}

// Property: SUM == AVG × COUNT on any nonempty selection.
func TestSumAvgCountConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.NormFloat64() * 50
		}
		tb := table.New("t")
		tb.AddFloatColumn("x", xs)
		tb.AddFloatColumn("y", ys)
		lb := rng.Float64() * 50
		ub := lb + 10 + rng.Float64()*40
		pred := []Range{{"x", lb, ub}}
		cnt, err := Query(tb, Request{AF: Count, Y: "y", Predicates: pred})
		if err != nil {
			return false
		}
		if cnt.Value == 0 {
			return true
		}
		sum, err1 := Query(tb, Request{AF: Sum, Y: "y", Predicates: pred})
		avg, err2 := Query(tb, Request{AF: Avg, Y: "y", Predicates: pred})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(sum.Value-avg.Value*cnt.Value) < 1e-6*math.Max(1, math.Abs(sum.Value))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: grouped results partition the ungrouped result for SUM/COUNT.
func TestGroupPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		xs := make([]float64, n)
		ys := make([]float64, n)
		gs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			ys[i] = rng.Float64() * 10
			gs[i] = int64(rng.Intn(5))
		}
		tb := table.New("t")
		tb.AddFloatColumn("x", xs)
		tb.AddFloatColumn("y", ys)
		tb.AddIntColumn("g", gs)
		pred := []Range{{"x", 2, 8}}
		whole, err := Query(tb, Request{AF: Sum, Y: "y", Predicates: pred})
		if err != nil {
			return false
		}
		parts, err := Query(tb, Request{AF: Sum, Y: "y", Predicates: pred, Group: "g"})
		if err != nil {
			return false
		}
		s := 0.0
		for _, v := range parts.Groups {
			s += v
		}
		return math.Abs(s-whole.Value) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The row-at-a-time engine the block filter replaced, kept as the oracle's
// oracle: referenceQuery is the old Query, referenceFilter the old per-row
// match DistinctCount and TopValues used.

type refAccum struct {
	n            float64
	sum, sumSq   float64
	values       []float64
	wantQuantile bool
}

func (a *refAccum) add(v float64) {
	a.n++
	a.sum += v
	a.sumSq += v * v
	if a.wantQuantile {
		a.values = append(a.values, v)
	}
}

func (a *refAccum) result(af AggFunc, p float64) (float64, error) {
	switch af {
	case Count:
		return a.n, nil
	case Sum:
		return a.sum, nil
	case Avg:
		if a.n == 0 {
			return 0, errors.New("exact: AVG over empty selection")
		}
		return a.sum / a.n, nil
	case Variance, StdDev:
		if a.n == 0 {
			return 0, errors.New("exact: VARIANCE over empty selection")
		}
		m := a.sum / a.n
		v := a.sumSq/a.n - m*m
		if v < 0 {
			v = 0
		}
		if af == StdDev {
			return math.Sqrt(v), nil
		}
		return v, nil
	case Percentile:
		if len(a.values) == 0 {
			return 0, errors.New("exact: PERCENTILE over empty selection")
		}
		sort.Float64s(a.values)
		return refQuantile(a.values, p), nil
	default:
		return 0, fmt.Errorf("exact: unsupported aggregate %v", af)
	}
}

func refQuantile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func referenceFilter(tb *table.Table, predicates []Range, equals []Equal) (func(i int) bool, error) {
	type pred struct {
		col    []float64
		lb, ub float64
	}
	preds := make([]pred, 0, len(predicates))
	for _, r := range predicates {
		c, err := tb.Floats(r.Column)
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred{c, r.Lb, r.Ub})
	}
	type eq struct {
		col   *table.Column
		value string
	}
	eqs := make([]eq, 0, len(equals))
	for _, e := range equals {
		c := tb.Column(e.Column)
		if c == nil {
			return nil, fmt.Errorf("exact: no column %q", e.Column)
		}
		eqs = append(eqs, eq{c, e.Value})
	}
	return func(i int) bool {
		for _, p := range preds {
			if v := p.col[i]; math.IsNaN(v) || v < p.lb || v > p.ub {
				return false
			}
		}
		for _, e := range eqs {
			if e.col.Str(i) != e.value {
				return false
			}
		}
		return true
	}, nil
}

func referenceQuery(tb *table.Table, req Request) (*Result, error) {
	ycol, err := tb.Floats(req.Y)
	if err != nil {
		return nil, err
	}
	match, err := referenceFilter(tb, req.Predicates, req.Equals)
	if err != nil {
		return nil, err
	}
	wantQ := req.AF == Percentile
	if req.Group == "" {
		acc := refAccum{wantQuantile: wantQ}
		for i := range ycol {
			if match(i) {
				acc.add(ycol[i])
			}
		}
		v, err := acc.result(req.AF, req.P)
		if err != nil {
			return nil, err
		}
		return &Result{Value: v}, nil
	}
	gc := tb.Column(req.Group)
	if gc == nil {
		return nil, fmt.Errorf("exact: no group column %q", req.Group)
	}
	if gc.Type != table.Int64 {
		return nil, fmt.Errorf("exact: group column %q must be INT64", req.Group)
	}
	accs := make(map[int64]*refAccum)
	for i := range ycol {
		if !match(i) {
			continue
		}
		a, ok := accs[gc.Ints[i]]
		if !ok {
			a = &refAccum{wantQuantile: wantQ}
			accs[gc.Ints[i]] = a
		}
		a.add(ycol[i])
	}
	out := &Result{Groups: make(map[int64]float64, len(accs))}
	for g, a := range accs {
		v, err := a.result(req.AF, req.P)
		if err != nil {
			continue
		}
		out.Groups[g] = v
	}
	return out, nil
}

// sameAnswer reports whether the block kernel's answer is the reference's:
// Float64bits-equal, or == (both NaN counting as equal) for PERCENTILE,
// whose -0 and 0 may trade places under either order.
func sameAnswer(af AggFunc, got, want float64) bool {
	if af == Percentile {
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// tricky are equality literals whose canonical-rendering rule matters.
var tricky = []string{"05", "+3", "3.0", "-0", "0", "NaN", "nan", "+Inf", "Inf",
	"1e+21", "1e21", "1e-07", "0.5", "100000", "1e+06", "", " 3", "-3", "a"}

// randomCase builds a seeded table of n rows and one request over it: Int64
// and Float64 predicate and aggregate columns (the Float64 ones with NaN,
// -0 and infinite rows), a String column, and an Int64 group column.
func randomCase(rng *rand.Rand, n int) (*table.Table, Request) {
	f, v, e := make([]float64, n), make([]float64, n), make([]float64, n)
	in, w, g := make([]int64, n), make([]int64, n), make([]int64, n)
	s := make([]string, n)
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, 1e21, 0.5, 1e-7, math.Inf(1), 3, 1e6}
	for r := 0; r < n; r++ {
		f[r] = math.Round(rng.Float64()*400) / 8
		if rng.Intn(20) == 0 {
			f[r] = special[rng.Intn(len(special))]
		}
		v[r] = rng.NormFloat64() * 1e3
		if rng.Intn(50) == 0 {
			v[r] = special[rng.Intn(len(special))]
		}
		e[r] = special[rng.Intn(len(special))]
		in[r] = int64(rng.Intn(41) - 10)
		w[r] = rng.Int63n(1<<40) - 1<<39
		g[r] = int64(rng.Intn(5))
		s[r] = string(rune('a' + rng.Intn(3)))
	}
	tb := table.New("t")
	tb.AddFloatColumn("f", f)
	tb.AddFloatColumn("v", v)
	tb.AddFloatColumn("e", e)
	tb.AddIntColumn("i", in)
	tb.AddIntColumn("w", w)
	tb.AddIntColumn("g", g)
	tb.AddStringColumn("s", s)

	numCols := []string{"f", "v", "i", "w"}
	req := Request{AF: AggFunc(rng.Intn(int(Percentile) + 1)), Y: numCols[rng.Intn(len(numCols))]}
	bound := func(col string) float64 {
		if n > 0 && rng.Intn(4) > 0 {
			return tb.Column(col).Float(rng.Intn(n))
		}
		return rng.NormFloat64() * 20
	}
	for k := rng.Intn(3); k > 0; k-- {
		col := numCols[rng.Intn(len(numCols))]
		lb, ub := bound(col), bound(col)
		if rng.Intn(5) > 0 && lb > ub {
			lb, ub = ub, lb
		}
		req.Predicates = append(req.Predicates, Range{Column: col, Lb: lb, Ub: ub})
	}
	if rng.Intn(2) == 0 {
		col := []string{"i", "s", "e", "f", "w"}[rng.Intn(5)]
		lit := tricky[rng.Intn(len(tricky))]
		if n > 0 && rng.Intn(2) == 0 {
			lit = tb.Column(col).Str(rng.Intn(n))
		}
		req.Equals = []Equal{{Column: col, Value: lit}}
	}
	if rng.Intn(2) == 0 {
		req.Group = "g"
	}
	req.P = rng.Float64()*1.2 - 0.1
	return tb, req
}

// checkAgainstReference fails t unless Query answers req exactly as
// referenceQuery does, errors included.
func checkAgainstReference(t *testing.T, tb *table.Table, req Request) {
	t.Helper()
	got, gerr := Query(tb, req)
	want, werr := referenceQuery(tb, req)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%+v: error %v, reference %v", req, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if (got.Groups == nil) != (want.Groups == nil) || len(got.Groups) != len(want.Groups) {
		t.Fatalf("%+v: groups %v, reference %v", req, got.Groups, want.Groups)
	}
	if !sameAnswer(req.AF, got.Value, want.Value) {
		t.Fatalf("%+v: %v (%#x), reference %v (%#x)", req, got.Value, math.Float64bits(got.Value),
			want.Value, math.Float64bits(want.Value))
	}
	for g, w := range want.Groups {
		if v, ok := got.Groups[g]; !ok || !sameAnswer(req.AF, v, w) {
			t.Fatalf("%+v: group %d = %v, reference %v", req, g, v, w)
		}
	}
}

// queryLengths straddle the block size.
var queryLengths = []int{0, 1, 1023, 1024, 1025, 3000}

func TestQueryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range queryLengths {
		for k := 0; k < 150; k++ {
			tb, req := randomCase(rng, n)
			checkAgainstReference(t, tb, req)
		}
	}
}

func FuzzExactQuery(f *testing.F) {
	for i, n := range queryLengths {
		f.Add(int64(i), uint16(n))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		if n > 5000 {
			t.Skip()
		}
		tb, req := randomCase(rand.New(rand.NewSource(seed)), int(n))
		checkAgainstReference(t, tb, req)
	})
}

func TestDistinctTopMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range queryLengths {
		for k := 0; k < 40; k++ {
			tb, req := randomCase(rng, n)
			col := []string{"i", "s", "e", "f"}[k%4]
			match, err := referenceFilter(tb, req.Predicates, req.Equals)
			if err != nil {
				t.Fatal(err)
			}
			set := map[string]struct{}{}
			counts := map[string]uint64{}
			for i := 0; i < n; i++ {
				if match(i) {
					set[valueKey(tb.Column(col), i)] = struct{}{}
					counts[valueKey(tb.Column(col), i)]++
				}
			}
			// Without predicates DistinctCount counts by the table's typed
			// scan, not through the filter, so only filtered counts compare.
			d, err := DistinctCount(tb, col, req.Predicates, req.Equals)
			if err != nil || (len(req.Predicates)+len(req.Equals) > 0 && d != float64(len(set))) {
				t.Fatalf("%s %+v: distinct %v (%v), reference %d", col, req, d, err, len(set))
			}
			top, err := TopValues(tb, col, 1000, req.Predicates, req.Equals)
			if err != nil || len(top) != len(counts) {
				t.Fatalf("%s %+v: %d top values (%v), reference %d", col, req, len(top), err, len(counts))
			}
			for _, e := range top {
				if counts[e.Value] != e.Count {
					t.Fatalf("%s %+v: %q counted %d, reference %d", col, req, e.Value, e.Count, counts[e.Value])
				}
			}
		}
	}
}

// An equality matches a row exactly when Column.Str renders the row as the
// literal: a numeric literal in any but its canonical form matches nothing.
func TestEqualityLiteralsMatchStr(t *testing.T) {
	ints := table.New("t")
	ints.AddIntColumn("c", []int64{3, 5, -3, 0, 30, 100000, math.MaxInt64, math.MinInt64})
	floats := table.New("t")
	floats.AddFloatColumn("c", []float64{3, 0.5, math.Copysign(0, -1), 0, math.NaN(), 1e21,
		1e-7, math.Inf(1), 100000, 1e6})
	lits := append([]string{"3", "5", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "1e-7", "-Inf", "0x1p-2", "1_0"}, tricky...)
	for _, tb := range []*table.Table{ints, floats} {
		c := tb.Column("c")
		for _, lit := range lits {
			want := 0.0
			for r := 0; r < c.Len(); r++ {
				if c.Str(r) == lit {
					want++
				}
			}
			got, err := Query(tb, Request{AF: Count, Y: "c", Equals: []Equal{{"c", lit}}})
			if err != nil || got.Value != want {
				t.Errorf("%s column = %q: COUNT %v (%v), want %v", c.Type, lit, got, err, want)
			}
		}
	}
}

func TestPercentileSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 1}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(60)
		if trial%40 == 0 {
			n = 5000
		}
		vals := make([]float64, n)
		for i := range vals {
			switch trial % 4 {
			case 0:
				vals[i] = float64(rng.Intn(4)) // heavy duplicates
			case 1:
				vals[i] = float64(i) // already sorted
			case 2:
				vals[i] = special[rng.Intn(len(special))]
			default:
				vals[i] = rng.NormFloat64()
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for _, p := range []float64{-0.5, 0, 1e-9, 0.25, 0.5, rng.Float64(), 0.999, 1, 2} {
			got := quantile(append([]float64(nil), vals...), p)
			if want := refQuantile(sorted, p); !sameAnswer(Percentile, got, want) {
				t.Fatalf("n=%d p=%v: %v, sort-based %v", n, p, got, want)
			}
		}
	}
}

// benchTable is an exact-path table shaped like the serving benchmark's
// fact table: Int64 quantity and store columns, Float64 price and discount.
func benchTable(n int) *table.Table {
	rng := rand.New(rand.NewSource(4))
	qty, store := make([]int64, n), make([]int64, n)
	price, disc := make([]float64, n), make([]float64, n)
	for i := range qty {
		qty[i] = 1 + rng.Int63n(100)
		store[i] = 1 + rng.Int63n(10)
		price[i] = rng.Float64() * 200
		disc[i] = rng.Float64() * 50
	}
	tb := table.New("t")
	tb.AddIntColumn("qty", qty)
	tb.AddIntColumn("store", store)
	tb.AddFloatColumn("price", price)
	tb.AddFloatColumn("disc", disc)
	return tb
}

// A scalar query over an Int64 predicate neither converts the column nor
// renders rows to compare an equality.
func TestExactQueryAllocCeiling(t *testing.T) {
	tb := benchTable(50_000)
	for _, req := range []Request{
		{AF: Avg, Y: "disc", Predicates: []Range{{"qty", 20, 60}}},
		{AF: Avg, Y: "disc", Predicates: []Range{{"qty", 20, 60}}, Equals: []Equal{{"store", "3"}}},
	} {
		run := func() {
			if _, err := Query(tb, req); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, run)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		if allocs > 4 || bytes > 1024 {
			t.Errorf("%+v: %v allocs and %d B a query; the ceiling is 4 and 1 KiB", req, allocs, bytes)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	tb := benchTable(200_000)
	for _, bc := range []struct {
		name string
		req  Request
	}{
		{"avg-float-range", Request{AF: Avg, Y: "disc", Predicates: []Range{{"price", 40, 120}}}},
		{"avg-int-range", Request{AF: Avg, Y: "disc", Predicates: []Range{{"qty", 20, 60}}}},
		{"avg-int-range-eq", Request{AF: Avg, Y: "disc", Predicates: []Range{{"qty", 20, 60}},
			Equals: []Equal{{"store", "3"}}}},
		{"sum-grouped", Request{AF: Sum, Y: "disc", Predicates: []Range{{"qty", 20, 60}}, Group: "store"}},
		{"percentile-whole", Request{AF: Percentile, Y: "price", P: 0.37}},
	} {
		for _, engine := range []struct {
			name string
			fn   func(*table.Table, Request) (*Result, error)
		}{{"kernel", Query}, {"reference", referenceQuery}} {
			b.Run(bc.name+"/"+engine.name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if _, err := engine.fn(tb, bc.req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
