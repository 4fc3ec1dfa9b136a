// Package sample implements the sampling strategies of the paper and its
// baselines: uniform reservoir sampling (DBEst relies "solely on reservoir
// sampling to generate uniform samples over the original table", §3),
// per-group reservoirs (a sample is recorded per each GROUP BY value, §2.3),
// stratified sampling (BlinkDB-style baselines), and hashed/universe
// sampling on join keys (VerdictDB/QuickR-style join samples, §2.2).
package sample

import (
	"errors"
	"math"
	"math/rand"

	"dbest/internal/table"
)

// Reservoir maintains a fixed-capacity uniform sample of a stream of row
// indices using Vitter's Algorithm L (optimal skip-based reservoir
// sampling), the algorithm family of the paper's citation [55].
type Reservoir struct {
	k     int
	seen  int
	items []int
	rng   *rand.Rand
	w     float64
	next  int // absolute index of the next item to admit
}

// NewReservoir creates a reservoir of capacity k seeded deterministically.
func NewReservoir(k int, seed int64) *Reservoir {
	r := &Reservoir{k: k, rng: rand.New(rand.NewSource(seed))}
	r.w = math.Exp(math.Log(r.rng.Float64()) / float64(k))
	r.next = -1
	return r
}

// Offer presents stream element i (a row index) to the reservoir. It
// reports whether i was admitted — either filling an empty slot or
// replacing a previously sampled element. The reservoir's state depends
// only on the sequence of Offer calls, so a stream may be offered across
// many sessions (train, then ingest more) and the sample is identical to
// offering the concatenated stream once.
func (r *Reservoir) Offer(i int) bool {
	if r.seen < r.k {
		r.items = append(r.items, i)
		r.seen++
		if r.seen == r.k {
			r.scheduleNext()
		}
		return true
	}
	r.seen++
	if r.seen-1 == r.next {
		r.items[r.rng.Intn(r.k)] = i
		r.scheduleNext()
		return true
	}
	return false
}

// Advance offers the next count stream elements, assuming each element's
// value is its stream position (the row-index streams every caller in this
// package uses). Past the fill phase it jumps straight between Algorithm L
// admission points instead of offering every element, so appending n rows
// costs O(k log(n/k)), not O(n). It returns how many elements were
// admitted into the reservoir.
func (r *Reservoir) Advance(count int) (admitted int) {
	end := r.seen + count
	for r.seen < r.k && r.seen < end {
		r.Offer(r.seen)
		admitted++
	}
	for r.seen < end {
		if r.next >= end {
			// The next admission lies beyond this batch: skip to the end.
			r.seen = end
			return admitted
		}
		r.seen = r.next
		r.Offer(r.seen)
		admitted++
	}
	return admitted
}

func (r *Reservoir) scheduleNext() {
	// Algorithm L: skip a Geometric-like number of items.
	skip := int(math.Floor(math.Log(r.rng.Float64())/math.Log(1-r.w))) + 1
	r.next = r.seen + skip - 1
	r.w *= math.Exp(math.Log(r.rng.Float64()) / float64(r.k))
}

// Indices returns the sampled row indices (order is not meaningful).
func (r *Reservoir) Indices() []int { return r.items }

// Uniform draws a uniform sample of up to k row indices from a table with n
// rows, via a single reservoir pass.
func Uniform(n, k int, seed int64) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	r := NewReservoir(k, seed)
	for i := 0; i < n; i++ {
		r.Offer(i)
	}
	return r.Indices()
}

// UniformTable materializes a uniform sample of tb with up to k rows.
func UniformTable(tb *table.Table, k int, seed int64) *table.Table {
	return tb.SelectRows(Uniform(tb.NumRows(), k, seed))
}

// GroupReservoirs maintains one reservoir per GROUP BY value so each group's
// sample is uniform within the group. Capacity is per group.
type GroupReservoirs struct {
	perGroup int
	seed     int64
	groups   map[int64]*Reservoir
	counts   map[int64]int
}

// NewGroupReservoirs creates per-group reservoirs with the given per-group
// capacity.
func NewGroupReservoirs(perGroup int, seed int64) *GroupReservoirs {
	return &GroupReservoirs{
		perGroup: perGroup,
		seed:     seed,
		groups:   make(map[int64]*Reservoir),
		counts:   make(map[int64]int),
	}
}

// Offer presents row i belonging to group g.
func (g *GroupReservoirs) Offer(gval int64, i int) {
	r, ok := g.groups[gval]
	if !ok {
		r = NewReservoir(g.perGroup, g.seed+gval)
		g.groups[gval] = r
	}
	r.Offer(i)
	g.counts[gval]++
}

// Groups returns the distinct group values observed.
func (g *GroupReservoirs) Groups() []int64 {
	out := make([]int64, 0, len(g.groups))
	for k := range g.groups {
		out = append(out, k)
	}
	return out
}

// Indices returns the sampled row indices for group g, or nil if unseen.
func (g *GroupReservoirs) Indices(gval int64) []int {
	r, ok := g.groups[gval]
	if !ok {
		return nil
	}
	return r.Indices()
}

// ByGroup scans tb once and returns per-group uniform samples keyed by the
// values of groupCol (must be an Int64 column), along with per-group row
// counts.
func ByGroup(tb *table.Table, groupCol string, perGroup int, seed int64) (map[int64][]int, map[int64]int, error) {
	c := tb.Column(groupCol)
	if c == nil {
		return nil, nil, errors.New("sample: no group column " + groupCol)
	}
	if c.Type != table.Int64 {
		return nil, nil, errors.New("sample: group column must be INT64")
	}
	gr := NewGroupReservoirs(perGroup, seed)
	for i, v := range c.Ints {
		gr.Offer(v, i)
	}
	out := make(map[int64][]int, len(gr.groups))
	for _, gv := range gr.Groups() {
		out[gv] = gr.Indices(gv)
	}
	return out, gr.counts, nil
}

// ByNominal scans tb once and returns per-value uniform samples keyed by
// the values of a String column, along with per-value row counts. It backs
// the paper's nominal-categorical support (§2.3), which "mimics the support
// for GROUP BY attributes by maintaining regression and density estimator
// models for each nominal value".
func ByNominal(tb *table.Table, col string, perValue int, seed int64) (map[string][]int, map[string]int, error) {
	c := tb.Column(col)
	if c == nil {
		return nil, nil, errors.New("sample: no nominal column " + col)
	}
	if c.Type != table.String {
		return nil, nil, errors.New("sample: nominal column must be STRING")
	}
	rs := make(map[string]*Reservoir)
	counts := make(map[string]int)
	next := int64(0)
	for i, v := range c.Strings {
		r, ok := rs[v]
		if !ok {
			r = NewReservoir(perValue, seed+next)
			next++
			rs[v] = r
		}
		r.Offer(i)
		counts[v]++
	}
	out := make(map[string][]int, len(rs))
	for v, r := range rs {
		out[v] = r.Indices()
	}
	return out, counts, nil
}

// Stratified draws a stratified sample over the strata defined by the values
// of stratCol (Int64): each stratum gets capacity proportional to
// sqrt(stratum size) scaled so the total is ~k, with a floor of minPer per
// stratum — the BlinkDB-flavoured allocation that protects rare groups.
func Stratified(tb *table.Table, stratCol string, k, minPer int, seed int64) (map[int64][]int, error) {
	c := tb.Column(stratCol)
	if c == nil {
		return nil, errors.New("sample: no stratification column " + stratCol)
	}
	if c.Type != table.Int64 {
		return nil, errors.New("sample: stratification column must be INT64")
	}
	sizes := make(map[int64]int)
	for _, v := range c.Ints {
		sizes[v]++
	}
	var totalSqrt float64
	for _, n := range sizes {
		totalSqrt += math.Sqrt(float64(n))
	}
	caps := make(map[int64]int, len(sizes))
	for g, n := range sizes {
		cap := int(float64(k) * math.Sqrt(float64(n)) / totalSqrt)
		if cap < minPer {
			cap = minPer
		}
		if cap > n {
			cap = n
		}
		caps[g] = cap
	}
	gr := make(map[int64]*Reservoir, len(sizes))
	for g, cp := range caps {
		gr[g] = NewReservoir(cp, seed+g)
	}
	for i, v := range c.Ints {
		gr[v].Offer(i)
	}
	out := make(map[int64][]int, len(sizes))
	for g, r := range gr {
		out[g] = r.Indices()
	}
	return out, nil
}

// Hashed performs universe ("hashed") sampling on a join-key column: a row
// is kept iff hash(key, seed) mod denom < num. Applying the same (num, denom,
// seed) to both join sides preserves join pairs, which is what makes
// sample-joins statistically sound (VerdictDB/QuickR §2.2). The hash is the
// same in every process, so a seed names one band of keys for good: a
// seeded build is reproducible, across restarts too.
func Hashed(tb *table.Table, keyCol string, num, denom, seed uint64) ([]int, error) {
	c := tb.Column(keyCol)
	if c == nil {
		return nil, errors.New("sample: no key column " + keyCol)
	}
	if c.Type != table.Int64 {
		return nil, errors.New("sample: hashed sampling requires an INT64 key")
	}
	if denom == 0 || num > denom {
		return nil, errors.New("sample: invalid sampling ratio")
	}
	// The odd multiplier spreads a small seed over all 64 bits, so the bands
	// of neighbouring seeds are unrelated rather than one band with pairs of
	// keys swapped.
	seed *= 0x9e3779b97f4a7c15
	var out []int
	for i, v := range c.Ints {
		if mix64(uint64(v)^seed)%denom < num {
			out = append(out, i)
		}
	}
	return out, nil
}

// mix64 is the 64-bit Murmur3 finalizer: a bijection whose every output bit
// depends on every input bit.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
