package sample

import (
	"math"
	"testing"
	"testing/quick"

	"dbest/internal/table"
)

func TestReservoirSmallStream(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 5; i++ {
		r.Offer(i)
	}
	if len(r.Indices()) != 5 {
		t.Fatalf("got %d items, want 5", len(r.Indices()))
	}
	if r.seen != 5 {
		t.Fatalf("Seen = %d", r.seen)
	}
}

func TestReservoirCapacity(t *testing.T) {
	r := NewReservoir(100, 2)
	for i := 0; i < 100000; i++ {
		r.Offer(i)
	}
	if len(r.Indices()) != 100 {
		t.Fatalf("got %d items, want 100", len(r.Indices()))
	}
	// All indices must be valid and distinct.
	seen := map[int]bool{}
	for _, i := range r.Indices() {
		if i < 0 || i >= 100000 || seen[i] {
			t.Fatalf("invalid or duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each element of a 1000-stream should land in a 100-reservoir with
	// probability 0.1; count inclusion of a probe element over many trials.
	hits := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(100, int64(trial))
		for i := 0; i < 1000; i++ {
			r.Offer(i)
		}
		for _, i := range r.Indices() {
			if i == 777 {
				hits++
				break
			}
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.1) > 0.025 {
		t.Fatalf("inclusion probability = %v, want ≈ 0.1", p)
	}
}

// Property: reservoir inclusion probability is k/n for every position,
// checked via the mean of sampled indices ≈ (n−1)/2 (uniform positions).
func TestReservoirMeanIndexProperty(t *testing.T) {
	f := func(seed int64) bool {
		const n, k = 5000, 200
		r := NewReservoir(k, seed)
		for i := 0; i < n; i++ {
			r.Offer(i)
		}
		s := 0.0
		for _, i := range r.Indices() {
			s += float64(i)
		}
		mean := s / k
		// Std of the mean is ~n/sqrt(12k) ≈ 102; accept 4σ.
		return math.Abs(mean-float64(n-1)/2) < 410
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformWholeTable(t *testing.T) {
	idx := Uniform(10, 20, 1)
	if len(idx) != 10 {
		t.Fatalf("k >= n should return all rows, got %d", len(idx))
	}
	for i, v := range idx {
		if v != i {
			t.Fatalf("identity expected: idx[%d] = %d", i, v)
		}
	}
}

func TestUniformTable(t *testing.T) {
	tb := table.New("t")
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	tb.AddFloatColumn("x", xs)
	s := UniformTable(tb, 50, 3)
	if s.NumRows() != 50 {
		t.Fatalf("sample rows = %d, want 50", s.NumRows())
	}
}

func TestGroupReservoirs(t *testing.T) {
	gr := NewGroupReservoirs(10, 1)
	for i := 0; i < 1000; i++ {
		gr.Offer(int64(i%3), i)
	}
	if len(gr.Groups()) != 3 {
		t.Fatalf("groups = %d, want 3", len(gr.Groups()))
	}
	for g := int64(0); g < 3; g++ {
		idx := gr.Indices(g)
		if len(idx) != 10 {
			t.Fatalf("group %d sample = %d rows, want 10", g, len(idx))
		}
		for _, i := range idx {
			if int64(i%3) != g {
				t.Fatalf("row %d does not belong to group %d", i, g)
			}
		}
		// Counts: group 0 gets ceil(1000/3)=334, groups 1 and 2 get 333.
		want := 333
		if g == 0 {
			want = 334
		}
		if gr.counts[g] != want {
			t.Fatalf("Count(%d) = %d, want %d", g, gr.counts[g], want)
		}
	}
	if gr.Indices(99) != nil {
		t.Fatal("unseen group should return nil")
	}
}

func TestByGroup(t *testing.T) {
	tb := table.New("t")
	gs := make([]int64, 300)
	xs := make([]float64, 300)
	for i := range gs {
		gs[i] = int64(i % 5)
		xs[i] = float64(i)
	}
	tb.AddIntColumn("g", gs)
	tb.AddFloatColumn("x", xs)
	samples, counts, err := ByGroup(tb, "g", 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("groups = %d", len(samples))
	}
	for g, idx := range samples {
		if len(idx) != 20 {
			t.Fatalf("group %d: %d rows", g, len(idx))
		}
		if counts[g] != 60 {
			t.Fatalf("group %d count = %d, want 60", g, counts[g])
		}
	}
	if _, _, err := ByGroup(tb, "missing", 10, 0); err == nil {
		t.Fatal("want error for missing column")
	}
	if _, _, err := ByGroup(tb, "x", 10, 0); err == nil {
		t.Fatal("want error for non-int column")
	}
}

func TestStratified(t *testing.T) {
	// Highly skewed strata: 10 000 rows of group 0, 100 of group 1, 10 of
	// group 2. Stratified sampling must keep at least minPer of each.
	tb := table.New("t")
	var gs []int64
	for i := 0; i < 10000; i++ {
		gs = append(gs, 0)
	}
	for i := 0; i < 100; i++ {
		gs = append(gs, 1)
	}
	for i := 0; i < 10; i++ {
		gs = append(gs, 2)
	}
	tb.AddIntColumn("g", gs)
	s, err := Stratified(tb, "g", 500, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s[2]) != 10 {
		t.Fatalf("tiny stratum should be kept whole, got %d", len(s[2]))
	}
	if len(s[1]) < 20 {
		t.Fatalf("rare stratum under-sampled: %d < 20", len(s[1]))
	}
	if len(s[0]) <= len(s[1]) {
		t.Fatal("large stratum should get more capacity than the rare one")
	}
	if _, err := Stratified(tb, "missing", 100, 1, 1); err == nil {
		t.Fatal("want error for missing column")
	}
}

func TestHashedPreservesJoinPairs(t *testing.T) {
	// Sampling both sides with the same seed and ratio must retain exactly
	// the rows whose key hashes into the admitted band on BOTH sides, so
	// every retained left key that exists on the right is joinable.
	left := table.New("l")
	right := table.New("r")
	var lk, rk []int64
	for i := 0; i < 5000; i++ {
		lk = append(lk, int64(i%400))
	}
	for i := 0; i < 400; i++ {
		rk = append(rk, int64(i))
	}
	left.AddIntColumn("k", lk)
	right.AddIntColumn("k", rk)
	const seed = 7
	li, err := Hashed(left, "k", 1, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Hashed(right, "k", 1, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	admitted := map[int64]bool{}
	for _, i := range ri {
		admitted[rk[i]] = true
	}
	for _, i := range li {
		if !admitted[lk[i]] {
			t.Fatalf("left key %d retained but right copy dropped", lk[i])
		}
	}
	// Ratio sanity: ~25% of the 400 distinct keys.
	if len(ri) < 50 || len(ri) > 150 {
		t.Fatalf("right sample = %d keys, want ≈ 100", len(ri))
	}
}

func TestHashedErrors(t *testing.T) {
	tb := table.New("t")
	tb.AddFloatColumn("x", []float64{1})
	const seed = 7
	if _, err := Hashed(tb, "missing", 1, 2, seed); err == nil {
		t.Fatal("want error for missing column")
	}
	if _, err := Hashed(tb, "x", 1, 2, seed); err == nil {
		t.Fatal("want error for float key")
	}
	tb.AddIntColumn("k", []int64{1})
	if _, err := Hashed(tb, "k", 1, 0, seed); err == nil {
		t.Fatal("want error for zero denominator")
	}
	if _, err := Hashed(tb, "k", 3, 2, seed); err == nil {
		t.Fatal("want error for num > denom")
	}
}

// Property: per-group reservoirs only ever contain rows of their own group.
func TestGroupReservoirInvariantProperty(t *testing.T) {
	f := func(seed int64, nGroups uint8) bool {
		g := int64(nGroups%7) + 2
		gr := NewGroupReservoirs(5, seed)
		for i := 0; i < 500; i++ {
			gr.Offer(int64(i)%g, i)
		}
		for _, gv := range gr.Groups() {
			for _, i := range gr.Indices(gv) {
				if int64(i)%g != gv {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Resumed-stream determinism: a reservoir fed in two sessions (train, then
// ingest more) must hold exactly the sample of the concatenated stream
// offered once. This is the invariant the ingestion subsystem's maintained
// reservoirs rely on.
func TestReservoirResumedStreamDeterminism(t *testing.T) {
	const k, first, second = 100, 1000, 500
	once := NewReservoir(k, 42)
	for i := 0; i < first+second; i++ {
		once.Offer(i)
	}
	resumed := NewReservoir(k, 42)
	for i := 0; i < first; i++ { // session 1: train
		resumed.Offer(i)
	}
	for i := first; i < first+second; i++ { // session 2: ingest
		resumed.Offer(i)
	}
	if resumed.seen != once.seen {
		t.Fatalf("Seen = %d, want %d", resumed.seen, once.seen)
	}
	a, b := once.Indices(), resumed.Indices()
	if len(a) != len(b) {
		t.Fatalf("got %d items resumed vs %d at once", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d: resumed %d != at-once %d", i, b[i], a[i])
		}
	}
}

// Advance must admit exactly the same sample as offering each row index
// individually — it is the fast-forward used on ingest, so any divergence
// would silently decouple maintained reservoirs from the training sampler.
func TestReservoirAdvanceMatchesOffer(t *testing.T) {
	for _, batches := range [][]int{{1500}, {50, 50, 1400}, {1000, 500}, {3, 7, 990, 500}} {
		total := 0
		adv := NewReservoir(100, 7)
		for _, n := range batches {
			adv.Advance(n)
			total += n
		}
		ref := NewReservoir(100, 7)
		for i := 0; i < total; i++ {
			ref.Offer(i)
		}
		if adv.seen != ref.seen {
			t.Fatalf("batches %v: Seen = %d, want %d", batches, adv.seen, ref.seen)
		}
		a, b := ref.Indices(), adv.Indices()
		if len(a) != len(b) {
			t.Fatalf("batches %v: %d items, want %d", batches, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("batches %v: item %d: %d != %d", batches, i, b[i], a[i])
			}
		}
	}
}

// Advance must also equal Uniform, which is what training uses.
func TestReservoirAdvanceMatchesUniform(t *testing.T) {
	const n, k, seed = 5000, 200, 3
	want := Uniform(n, k, seed)
	r := NewReservoir(k, seed)
	r.Advance(n)
	got := r.Indices()
	if len(got) != len(want) {
		t.Fatalf("got %d indices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// Uniformity over the appended region: after appending as many rows as the
// base stream, roughly half the reservoir should come from the appended
// half. Averaged over seeds to keep the test deterministic and tight.
func TestReservoirAppendedRegionUniformity(t *testing.T) {
	const k, base, appended = 100, 2000, 2000
	inAppended := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(k, int64(trial))
		r.Advance(base)     // train
		r.Advance(appended) // ingest
		for _, i := range r.Indices() {
			if i >= base {
				inAppended++
			}
		}
	}
	frac := float64(inAppended) / float64(trials*k)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("appended-region fraction = %.3f, want ~0.5", frac)
	}
}

// Offer reports admissions: the total admitted must equal Advance's count,
// and every stream shorter than capacity admits everything.
func TestReservoirOfferReportsAdmission(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 10; i++ {
		if !r.Offer(i) {
			t.Fatalf("fill-phase Offer(%d) not admitted", i)
		}
	}
	admitted := 0
	for i := 10; i < 1000; i++ {
		if r.Offer(i) {
			admitted++
		}
	}
	r2 := NewReservoir(10, 1)
	got := r2.Advance(10)
	got += r2.Advance(990)
	if got != 10+admitted {
		t.Fatalf("Advance admitted %d, Offer admitted %d", got, 10+admitted)
	}
}
