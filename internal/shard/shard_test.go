package shard

import (
	"math"
	"math/rand"
	"testing"
)

func TestPlanQuantileSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	s, err := Plan("x", xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 8 {
		t.Fatalf("K = %d, want 8", s.K())
	}
	for i := 1; i < len(s.Bounds); i++ {
		if s.Bounds[i] <= s.Bounds[i-1] {
			t.Fatalf("bounds not strictly increasing: %v", s.Bounds)
		}
	}
	// Quantile cuts must balance the shards to within a small factor.
	parts := s.Partition(xs)
	for i, rows := range parts {
		if len(rows) < len(xs)/s.K()/2 || len(rows) > len(xs)/s.K()*2 {
			t.Fatalf("shard %d has %d rows, want ~%d", i, len(rows), len(xs)/s.K())
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan("x", nil, 4); err == nil {
		t.Fatal("want error for empty domain")
	}
	if _, err := Plan("x", []float64{1, 2}, 0); err == nil {
		t.Fatal("want error for k < 1")
	}
	if _, err := Plan("x", []float64{1, 2}, MaxShards+1); err == nil {
		t.Fatal("want error for k > MaxShards")
	}
}

func TestPlanCollapsesTies(t *testing.T) {
	// A column with only two distinct values cannot support 8 shards.
	xs := make([]float64, 1000)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 5
		} else {
			xs[i] = 9
		}
	}
	s, err := Plan("x", xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() > 2 {
		t.Fatalf("K = %d for a two-value column, want <= 2", s.K())
	}
	// Constant column degenerates to one shard.
	for i := range xs {
		xs[i] = 3
	}
	s, err = Plan("x", xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 1 {
		t.Fatalf("K = %d for a constant column, want 1", s.K())
	}
}

func TestAssignAndPartition(t *testing.T) {
	s := &Split{Col: "x", Bounds: []float64{0, 10, 20, 30}}
	cases := []struct {
		x    float64
		want int
	}{
		{-5, 0}, {0, 0}, {9.99, 0},
		{10, 1}, {15, 1},
		{20, 2}, {29, 2}, {30, 2}, {1e9, 2},
	}
	for _, tc := range cases {
		if got := s.Assign(tc.x); got != tc.want {
			t.Errorf("Assign(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	parts := s.Partition([]float64{-1, 5, 12, 25, 99})
	want := [][]int{{0, 1}, {2}, {3, 4}}
	for i := range want {
		if len(parts[i]) != len(want[i]) {
			t.Fatalf("partition = %v, want %v", parts, want)
		}
		for j := range want[i] {
			if parts[i][j] != want[i][j] {
				t.Fatalf("partition = %v, want %v", parts, want)
			}
		}
	}
}

func TestOverlappingPrunes(t *testing.T) {
	s := &Split{Col: "x", Bounds: []float64{0, 10, 20, 30, 40}}
	cases := []struct {
		lb, ub float64
		want   []int
	}{
		{12, 18, []int{1}},                             // strictly inside shard 1
		{5, 25, []int{0, 1, 2}},                        // spans three shards
		{-100, -50, []int{0}},                          // below the domain: edge shard owns it
		{99, 200, []int{3}},                            // above the domain
		{math.Inf(-1), math.Inf(1), []int{0, 1, 2, 3}}, // full range
		{10, 10, []int{0, 1}},                          // exactly on a cut touches both
	}
	for _, tc := range cases {
		got := OverlappingRanges(s.K(), func(i int) (float64, float64) {
			return s.Bounds[i], s.Bounds[i+1]
		}, tc.lb, tc.ub)
		if len(got) != len(tc.want) {
			t.Fatalf("Overlapping(%v, %v) = %v, want %v", tc.lb, tc.ub, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Overlapping(%v, %v) = %v, want %v", tc.lb, tc.ub, got, tc.want)
			}
		}
	}
}

// TestMergeMatchesPooled: merging per-shard moment triples must equal the
// aggregate computed over the pooled data directly.
func TestMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ps []Partial
	var all []float64
	for s := 0; s < 4; s++ {
		p := Partial{Support: true}
		for i := 0; i < 1000; i++ {
			y := rng.NormFloat64()*float64(s+1) + float64(s)*10
			all = append(all, y)
			p.Count++
			p.Sum += y
			p.SumSq += y * y
		}
		ps = append(ps, p)
	}
	var n, sum, sumsq float64
	for _, y := range all {
		n++
		sum += y
		sumsq += y * y
	}
	if got := MergeCount(ps); math.Abs(got-n) > 1e-9 {
		t.Fatalf("count = %v, want %v", got, n)
	}
	if got := MergeSum(ps); math.Abs(got-sum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, sum)
	}
	avg, ok := MergeAvg(ps)
	if !ok || math.Abs(avg-sum/n) > 1e-9 {
		t.Fatalf("avg = %v (%v), want %v", avg, ok, sum/n)
	}
	wantVar := sumsq/n - (sum/n)*(sum/n)
	v, ok := MergeVariance(ps)
	if !ok || math.Abs(v-wantVar) > 1e-6 {
		t.Fatalf("variance = %v (%v), want %v", v, ok, wantVar)
	}
	sd, ok := MergeStdDev(ps)
	if !ok || math.Abs(sd-math.Sqrt(wantVar)) > 1e-6 {
		t.Fatalf("stddev = %v (%v), want %v", sd, ok, math.Sqrt(wantVar))
	}
}

func TestMergeEmptySupport(t *testing.T) {
	ps := []Partial{{}, {}}
	if got := MergeCount(ps); got != 0 {
		t.Fatalf("count = %v, want 0", got)
	}
	if got := MergeSum(ps); got != 0 {
		t.Fatalf("sum = %v, want 0", got)
	}
	if _, ok := MergeAvg(ps); ok {
		t.Fatal("avg over no support must not be ok")
	}
	if _, ok := MergeVariance(ps); ok {
		t.Fatal("variance over no support must not be ok")
	}
}

// TestQuantileMergedUniform: the merged quantile of two adjacent uniform
// shards is the pooled uniform quantile.
func TestQuantileMergedUniform(t *testing.T) {
	// Shard A holds mass 100 uniformly on [0, 10]; shard B holds mass 300
	// uniformly on [10, 20]. Pooled CDF reaches 0.5 of 400 at x = 13.33...
	massLE := func(x float64) float64 {
		a := 100 * math.Min(math.Max(x, 0), 10) / 10
		b := 300 * math.Min(math.Max(x-10, 0), 10) / 10
		return a + b
	}
	v, ok := Quantile(0.5, 0, 20, massLE)
	if !ok {
		t.Fatal("quantile not ok")
	}
	want := 10 + 10.0/3
	if math.Abs(v-want) > 1e-6 {
		t.Fatalf("quantile = %v, want %v", v, want)
	}
	if _, ok := Quantile(0.5, 0, 20, func(float64) float64 { return 0 }); ok {
		t.Fatal("quantile over zero mass must not be ok")
	}
	if _, ok := Quantile(0.5, math.Inf(-1), 20, massLE); ok {
		t.Fatal("quantile over an unbounded bracket must not be ok")
	}
}
