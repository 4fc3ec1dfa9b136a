package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dbest/internal/exact"
	"dbest/internal/table"
)

// fuzzColumn builds the x → y table FuzzTrainGrid trains on: rows values
// offset + spread·u, u uniform in [0, 1] or, with distinct > 0, cycling
// through that many evenly spaced values; a nonzero outlier replaces the
// middle row by offset + outlier. y follows u with unit noise.
func fuzzColumn(rows int, offset, spread float64, distinct uint8, outlier float64, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		u := rng.Float64()
		if distinct > 0 {
			u = float64(i%int(distinct)) / math.Max(float64(distinct)-1, 1)
		}
		xs[i] = offset + spread*u
		ys[i] = 10 + 5*u + rng.NormFloat64()
	}
	if outlier != 0 {
		xs[rows/2] = offset + outlier
	}
	tb := table.New("fuzz")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

// FuzzTrainGrid: whatever x column the fuzzer builds — 1 to 300 rows,
// duplicates, ulp-wide spreads, a far outlier, offsets to 2e15 — Train
// either refuses it with the named grid error or returns a model with a
// valid grid whose COUNT, SUM, AVG and PERCENTILE over fuzzer-chosen spans
// are finite. It never panics.
func FuzzTrainGrid(f *testing.F) {
	// The four inputs that once failed grid validation, at fuzz scale: an
	// epoch-microsecond PLR column, a far outlier, a two-valued column and a
	// domain a few ulps wide. Then a constant column, and {1e15, 1e15+1}.
	f.Add(uint16(299), 1.7e15, 8.64e10, uint8(0), 0.0, true, int64(1), 0.2, 0.5, 0.3)
	f.Add(uint16(299), 0.0, 100.0, uint8(0), 1e12, false, int64(2), 0.1, 0.4, 0.5)
	f.Add(uint16(79), 0.0, 1.0, uint8(2), 0.0, false, int64(3), 0.0, 1.0, 0.9)
	f.Add(uint16(299), 1.0, 3*0x1p-52, uint8(4), 0.0, false, int64(4), 0.25, 0.5, 0.5)
	f.Add(uint16(49), 42.0, 0.0, uint8(0), 0.0, false, int64(5), 0.3, 0.3, 0.5)
	f.Add(uint16(1), 1e15, 1.0, uint8(2), 0.0, false, int64(6), 0.0, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, n uint16, offset, spread float64, distinct uint8, outlier float64, plr bool, seed int64, spanLo, spanW, p float64) {
		if !(math.Abs(offset) <= 2e15 && spread >= 0 && spread <= 1e15 && math.Abs(outlier) <= 1e15) ||
			!(math.Abs(spanLo) <= 2 && spanW >= 0 && spanW <= 2 && p >= 0 && p <= 1) {
			t.Skip()
		}
		tb := fuzzColumn(1+int(n)%300, offset, spread, distinct, outlier, seed)
		ms, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 300, Seed: seed, EnsemblePLR: plr})
		if err != nil {
			if !errors.Is(err, errNoGrid) {
				t.Fatalf("Train: %v, want a model or the named grid refusal", err)
			}
			return
		}
		m := ms.Uni
		if !m.HasGrid() {
			t.Fatal("Train returned a model without a valid grid")
		}
		lo, hi := m.Grid.Span()
		lb := lo + spanLo*(hi-lo)
		ub := lb + spanW*(hi-lo)
		for _, q := range []struct {
			af   exact.AggFunc
			yIsX bool
		}{{exact.Count, false}, {exact.Sum, false}, {exact.Avg, false}, {exact.Avg, true}, {exact.Percentile, false}} {
			v, err := m.Aggregate(q.af, lb, ub, q.yIsX, p)
			if err != nil && !errors.Is(err, ErrNoSupport) {
				t.Fatalf("%v yIsX=%v over [%v, %v]: %v", q.af, q.yIsX, lb, ub, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v yIsX=%v over [%v, %v] = %v", q.af, q.yIsX, lb, ub, v)
			}
		}
	})
}

// TestGridRefusedAtFloatResolution pins the refusal FuzzTrainGrid's last
// seed reaches: two values 1 apart at 1e15, where float64 steps by 0.125,
// leave the grid no room to follow the CDF, and Train says so by name.
func TestGridRefusedAtFloatResolution(t *testing.T) {
	tb := table.New("wide")
	tb.AddFloatColumn("x", []float64{1e15, 1e15 + 1})
	tb.AddFloatColumn("y", []float64{1, 2})
	_, err := Train(tb, []string{"x"}, "y", &TrainConfig{Seed: 6})
	if !errors.Is(err, errNoGrid) {
		t.Fatalf("Train = %v, want the named grid refusal", err)
	}
	t.Log(err)
}
