package workload

import (
	"math"
	"testing"
	"testing/quick"

	"dbest/internal/exact"
	"dbest/internal/table"
)

func tbl() *table.Table {
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i) / 10 // domain [0, 99.9]
		ys[i] = float64(i)
	}
	tb := table.New("t")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

func TestGenerate(t *testing.T) {
	qs, err := Generate(tbl(), Spec{
		XCol: "x", YCol: "y",
		AFs:       []exact.AggFunc{exact.Count, exact.Sum, exact.Avg},
		RangeFrac: 0.01, PerAF: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 60 {
		t.Fatalf("got %d queries, want 60", len(qs))
	}
	for _, q := range qs {
		if q.Ub <= q.Lb {
			t.Fatalf("degenerate range %+v", q)
		}
		w := q.Ub - q.Lb
		if math.Abs(w-0.999) > 1e-9 {
			t.Fatalf("width = %v, want 0.999 (1%% of domain)", w)
		}
		if q.Lb < 0 || q.Ub > 99.9+1e-9 {
			t.Fatalf("range %v..%v outside domain", q.Lb, q.Ub)
		}
	}
}

func TestGeneratePercentileUsesXColumn(t *testing.T) {
	qs, err := Generate(tbl(), Spec{
		XCol: "x", YCol: "y",
		AFs:       []exact.AggFunc{exact.Percentile},
		RangeFrac: 0.1, PerAF: 3, Seed: 2, P: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.YCol != "x" {
			t.Fatalf("percentile must target the x column, got %q", q.YCol)
		}
		if q.P != 0.9 {
			t.Fatalf("P = %v", q.P)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	tb := tbl()
	if _, err := Generate(tb, Spec{XCol: "nope", YCol: "y", AFs: []exact.AggFunc{exact.Count}, RangeFrac: 0.1}); err == nil {
		t.Fatal("want error for missing column")
	}
	if _, err := Generate(tb, Spec{XCol: "x", YCol: "y", AFs: []exact.AggFunc{exact.Count}, RangeFrac: 0}); err == nil {
		t.Fatal("want error for zero RangeFrac")
	}
	if _, err := Generate(tb, Spec{XCol: "x", YCol: "y", AFs: []exact.AggFunc{exact.Count}, RangeFrac: 2}); err == nil {
		t.Fatal("want error for RangeFrac > 1")
	}
	empty := table.New("e")
	empty.AddFloatColumn("x", nil)
	empty.AddFloatColumn("y", nil)
	if _, err := Generate(empty, Spec{XCol: "x", YCol: "y", AFs: []exact.AggFunc{exact.Count}, RangeFrac: 0.1}); err == nil {
		t.Fatal("want error for empty table")
	}
	degen := table.New("d")
	degen.AddFloatColumn("x", []float64{5, 5})
	degen.AddFloatColumn("y", []float64{1, 2})
	if _, err := Generate(degen, Spec{XCol: "x", YCol: "y", AFs: []exact.AggFunc{exact.Count}, RangeFrac: 0.1}); err == nil {
		t.Fatal("want error for degenerate domain")
	}
}

func TestQueryRequest(t *testing.T) {
	q := Query{AF: exact.Sum, XCol: "x", YCol: "y", Lb: 1, Ub: 2, P: 0.5}
	req := q.Request("g")
	if req.AF != exact.Sum || req.Y != "y" || req.Group != "g" {
		t.Fatalf("req = %+v", req)
	}
	if len(req.Predicates) != 1 || req.Predicates[0] != (exact.Range{Column: "x", Lb: 1, Ub: 2}) {
		t.Fatalf("predicates = %+v", req.Predicates)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(11, 10) != 0.1 {
		t.Fatalf("RelErr = %v", RelErr(11, 10))
	}
	if RelErr(0, 0) != 0 {
		t.Fatalf("RelErr(0,0) = %v", RelErr(0, 0))
	}
	if RelErr(3, 0) != 3 {
		t.Fatalf("RelErr(3,0) = %v", RelErr(3, 0))
	}
	if RelErr(-11, -10) != 0.1 {
		t.Fatalf("RelErr(-11,-10) = %v", RelErr(-11, -10))
	}
	// Sub-floor truths are measured against the floor, not their own
	// magnitude: RelErr(0.5, 0.1) is 0.4, not the 4.0 an unfloored form
	// would report.
	if got := RelErr(0.5, 0.1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("RelErr(0.5,0.1) = %v, want 0.4", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.02, 0.05, 0.11, 0.5}, 10, 0.2)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("total = %d", total)
	}
	// The 0.5 value overflows into the last bin.
	if h.Counts[9] != 1 {
		t.Fatalf("overflow bin = %d", h.Counts[9])
	}
	// 4 of 5 observations are below 0.2 (bins 0..9 boundary math).
	if f := h.FractionBelow(0.12); math.Abs(f-0.8) > 1e-9 {
		t.Fatalf("FractionBelow(0.12) = %v", f)
	}
}

func TestHistogramDefaults(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3}, 0, 0)
	if len(h.Counts) != 10 || h.Max != 3 {
		t.Fatalf("h = %+v", h)
	}
	h2 := NewHistogram(nil, 5, 0)
	if h2.Max != 1 {
		t.Fatalf("empty-input max = %v", h2.Max)
	}
	if h2.FractionBelow(0.5) != 0 {
		t.Fatal("empty histogram FractionBelow should be 0")
	}
}

// Property: every generated range lies within the column domain and has the
// requested width.
func TestGenerateRangesProperty(t *testing.T) {
	tb := tbl()
	f := func(seed int64, fracPct uint8) bool {
		frac := (float64(fracPct%99) + 1) / 100
		qs, err := Generate(tb, Spec{
			XCol: "x", YCol: "y", AFs: []exact.AggFunc{exact.Avg},
			RangeFrac: frac, PerAF: 10, Seed: seed,
		})
		if err != nil {
			return false
		}
		for _, q := range qs {
			if q.Lb < -1e-9 || q.Ub > 99.9+1e-9 {
				return false
			}
			if math.Abs((q.Ub-q.Lb)-99.9*frac) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
