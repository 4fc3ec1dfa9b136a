package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbest/internal/datagen"
	"dbest/internal/kde"
	"dbest/internal/sample"
	"dbest/internal/table"
)

// referenceRefineCDFKnots is refinement as it was before panels remembered
// being accepted: every round re-evaluates every panel's midpoint, serially.
// It reports nothing about the panels, so a grid tabulated from it is
// validated by the full midpoint walk — refine and validate exactly as PR 15
// ran them, the oracle for refineCDFKnots.
func referenceRefineCDFKnots(d *kde.Binned, kn []float64) refinedKnots {
	cd := make([]float64, len(kn))
	dv := make([]float64, len(kn))
	for i, x := range kn {
		cd[i] = d.CDF(x)
		dv[i] = d.Density(x)
	}
	scale := math.Max(cd[len(cd)-1]-cd[0], 1e-300)
	for round := 0; round < 24 && len(kn) < maxGridKnots; round++ {
		var nk, ncd, ndv []float64
		split := false
		for k := 0; k+1 < len(kn); k++ {
			nk = append(nk, kn[k])
			ncd = append(ncd, cd[k])
			ndv = append(ndv, dv[k])
			mid := 0.5 * (kn[k] + kn[k+1])
			if mid <= kn[k] || mid >= kn[k+1] {
				continue // float-resolution panel: cannot split further
			}
			want := d.CDF(mid)
			got := fcHermiteCDF(kn[k], kn[k+1], cd[k], cd[k+1], dv[k], dv[k+1], mid)
			if math.Abs(got-want)/math.Max(math.Abs(want), 1e-3*scale) > 0.5*gridErrBound {
				nk = append(nk, mid)
				ncd = append(ncd, want)
				ndv = append(ndv, d.Density(mid))
				split = true
			}
		}
		nk = append(nk, kn[len(kn)-1])
		ncd = append(ncd, cd[len(cd)-1])
		ndv = append(ndv, dv[len(dv)-1])
		kn, cd, dv = nk, ncd, ndv
		if !split {
			break
		}
	}
	return refinedKnots{knots: kn, cumD: cd, dVal: dv}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkRefineAgainstReference rebuilds m's grid from the reference
// refinement and requires the shipped one — knots, CumD, DVal, MaxRelErr, or
// its absence — to be the same, under one worker and under several.
func checkRefineAgainstReference(t *testing.T, name string, m *UniModel) {
	t.Helper()
	base := m.baseKnots()
	if base == nil {
		if m.HasGrid() {
			t.Errorf("%s: a grid without base knots", name)
		}
		return
	}
	ref := referenceRefineCDFKnots(m.D, base)
	for _, workers := range []int{1, 3} {
		got := refineCDFKnots(m.D, m.baseKnots(), workers)
		if !sameBits(got.knots, ref.knots) || !sameBits(got.cumD, ref.cumD) || !sameBits(got.dVal, ref.dVal) {
			t.Errorf("%s workers=%d: refinement gives %d knots, reference %d (or their CDF/density differ)",
				name, workers, len(got.knots), len(ref.knots))
		}
	}
	want, _ := m.tabulateGrid(ref, 1)
	if want.Valid() != m.HasGrid() {
		t.Fatalf("%s: reference grid valid = %v, trained grid valid = %v", name, want.Valid(), m.HasGrid())
	}
	if !want.Valid() {
		return
	}
	g := m.Grid
	if !sameBits(g.Knots, want.Knots) || !sameBits(g.CumD, want.CumD) {
		t.Errorf("%s: trained grid has %d knots, reference %d (or their CumD differ)", name, len(g.Knots), len(want.Knots))
	}
	if g.MaxRelErr != want.MaxRelErr {
		t.Errorf("%s: MaxRelErr %g, the full midpoint walk finds %g", name, g.MaxRelErr, want.MaxRelErr)
	}
}

// TestRefineMatchesReferenceOnBenchColumns pins the knot vectors of the
// three column pairs the benchmark's models train on.
func TestRefineMatchesReferenceOnBenchColumns(t *testing.T) {
	rows := 200_000
	if testing.Short() {
		rows = 20_000
	}
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: rows, Stores: 16, Seed: 1})
	for _, p := range [][2]string{
		{"ss_sold_date_sk", "ss_sales_price"},
		{"ss_list_price", "ss_net_profit"},
		{"ss_wholesale_cost", "ss_quantity"},
	} {
		ms, err := Train(tb, []string{p[0]}, p[1], &TrainConfig{SampleSize: 10000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !ms.Uni.HasGrid() {
			t.Fatalf("%s: no grid", p[0])
		}
		t.Logf("%s: %d knots, MaxRelErr %.3g", p[0], len(ms.Uni.Grid.Knots), ms.Uni.Grid.MaxRelErr)
		checkRefineAgainstReference(t, p[0], ms.Uni)
	}
}

// gridRejectedInputs are the ordinary inputs whose grid once failed
// build-time validation. Centring the moment tables made the epoch column
// grid, and normalising the reflected density made the two-valued column
// grid; the far outlier and the ulp-wide domain are still refused, by name.
// Either way, not because refinement stopped looking.
func gridRejectedInputs() []struct {
	name  string
	tb    *table.Table
	cfg   TrainConfig
	grids bool
} {
	pair := func(name string, xs []float64, y func(x float64, rng *rand.Rand) float64) *table.Table {
		rng := rand.New(rand.NewSource(3))
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = y(x, rng)
		}
		tb := table.New(name)
		tb.AddFloatColumn("x", xs)
		tb.AddFloatColumn("y", ys)
		return tb
	}
	rng := rand.New(rand.NewSource(1))
	const origin, day = 1.7e15, 8.64e10 // epoch microseconds, late 2023
	epoch := make([]float64, 50_000)
	for i := range epoch {
		epoch[i] = origin + rng.Float64()*day
	}
	outlier := make([]float64, 2000)
	for i := range outlier {
		outlier[i] = 100 * rng.Float64()
	}
	outlier[len(outlier)/2] = 1e12
	twoValued := make([]float64, 80)
	for i := range twoValued {
		twoValued[i] = float64(i % 2)
	}
	ulps := make([]float64, 500)
	for i := range ulps {
		ulps[i] = 1 + float64(rng.Intn(4))*0x1p-52
	}
	noisy := func(x float64, rng *rand.Rand) float64 { return 10 + 0.5*x + rng.NormFloat64() }
	return []struct {
		name  string
		tb    *table.Table
		cfg   TrainConfig
		grids bool
	}{
		{"epoch-us PLR", pair("epoch", epoch, func(x float64, rng *rand.Rand) float64 {
			return 100 + 50*(x-origin)/day + rng.NormFloat64()*5
		}), TrainConfig{SampleSize: 5000, Seed: 1, EnsemblePLR: true}, true},
		{"far outlier", pair("outlier", outlier, noisy), TrainConfig{SampleSize: 2000, Seed: 1}, false},
		{"two-valued x", pair("two", twoValued, noisy), TrainConfig{SampleSize: 100, Seed: 1}, true},
		{"ulp-wide domain", pair("ulps", ulps, noisy), TrainConfig{SampleSize: 500, Seed: 1}, false},
	}
}

// pairWithoutGrid fits the pair Train fits over tb's x → y and stops before
// the grid: the model a refused input leaves behind to inspect.
func pairWithoutGrid(t *testing.T, tb *table.Table, cfg TrainConfig) *UniModel {
	t.Helper()
	c := cfg.withDefaults()
	xs, ys, err := gatherPair(tb, "x", "y", sample.Uniform(tb.NumRows(), c.SampleSize, c.Seed))
	if err != nil {
		t.Fatal(err)
	}
	d, err := kde.NewBinned(xs, c.Bins, c.Bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fitRegressor(xs, ys, c)
	if err != nil {
		t.Fatal(err)
	}
	return &UniModel{XCol: "x", YCol: "y", D: d, R: r}
}

func TestRefineMatchesReferenceOnRejectedInputs(t *testing.T) {
	for _, in := range gridRejectedInputs() {
		ms, err := Train(in.tb, []string{"x"}, "y", &in.cfg)
		m := pairWithoutGrid(t, in.tb, in.cfg)
		switch {
		case in.grids && err != nil:
			t.Fatalf("%s: %v", in.name, err)
		case in.grids:
			t.Logf("%s: %d knots, MaxRelErr %.3g", in.name, len(ms.Uni.Grid.Knots), ms.Uni.Grid.MaxRelErr)
			m = ms.Uni
		case !errors.Is(err, errNoGrid) || !strings.Contains(err.Error(), `column "x"`):
			t.Fatalf("%s: Train error %v, want the named grid refusal", in.name, err)
		default:
			t.Logf("%s: %v", in.name, err)
		}
		checkRefineAgainstReference(t, in.name, m)
	}
}
