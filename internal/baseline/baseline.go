// Package baseline reimplements the query-time estimator semantics of the
// AQP engines the paper compares against, so accuracy comparisons measure
// the same statistical behaviour on the same data:
//
//   - VerdictSim — VerdictDB-style offline uniform samples kept in memory,
//     answered with Horvitz–Thompson scaling; join queries join the fact
//     sample with the dimension table at query time (§2.2, §4.8);
//   - BlinkSim — BlinkDB-style stratified samples with per-stratum weights;
//   - SampleExact — an exact columnar engine (MonetDB in Appendix C) run
//     over a uniform sample, scaling COUNT/SUM by the sampling ratio.
//
// All three retain their samples at query time — the state DBEst replaces
// with models — so their space overheads are sample-sized, as in Figs. 4,
// 12, 16 and 21.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"dbest/internal/exact"
	"dbest/internal/sample"
	"dbest/internal/table"
)

// weightedAccum accumulates Horvitz–Thompson-weighted moments.
type weightedAccum struct {
	w, wy, wyy float64   // Σw, Σw·y, Σw·y²
	n          float64   // unweighted matching rows
	y, sy      float64   // Σy, Σy² (unweighted, for AVG/VAR)
	vals       []float64 // retained for percentile
	wantQ      bool
}

func (a *weightedAccum) add(y, w float64) {
	a.w += w
	a.wy += w * y
	a.wyy += w * y * y
	a.n++
	a.y += y
	a.sy += y * y
	if a.wantQ {
		a.vals = append(a.vals, y)
	}
}

func (a *weightedAccum) result(af exact.AggFunc, p float64) (float64, error) {
	switch af {
	case exact.Count:
		return a.w, nil
	case exact.Sum:
		return a.wy, nil
	case exact.Avg:
		if a.w == 0 {
			return 0, errors.New("baseline: empty selection")
		}
		return a.wy / a.w, nil
	case exact.Variance, exact.StdDev:
		if a.w == 0 {
			return 0, errors.New("baseline: empty selection")
		}
		m := a.wy / a.w
		v := a.wyy/a.w - m*m
		if v < 0 {
			v = 0
		}
		if af == exact.StdDev {
			return math.Sqrt(v), nil
		}
		return v, nil
	case exact.Percentile:
		if len(a.vals) == 0 {
			return 0, errors.New("baseline: empty selection")
		}
		sort.Float64s(a.vals)
		pos := p * float64(len(a.vals)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		return a.vals[lo]*(1-frac) + a.vals[hi]*frac, nil
	default:
		return 0, fmt.Errorf("baseline: unsupported aggregate %v", af)
	}
}

// BuildStats records state-building overheads for the comparison figures.
type BuildStats struct {
	SampleTime time.Duration
	SampleRows int
	Bytes      int
}

func sampleBytes(tb *table.Table) int {
	n := tb.NumRows()
	total := 0
	for _, c := range tb.Columns {
		switch c.Type {
		case table.Float64, table.Int64:
			total += 8 * n
		case table.String:
			for _, s := range c.Strings {
				total += len(s) + 16
			}
		}
	}
	return total
}

// VerdictSim answers queries from an offline uniform sample with
// Horvitz–Thompson scaling, like VerdictDB's "scramble" tables.
type VerdictSim struct {
	Name   string
	Sample *table.Table
	N      float64 // logical rows of the base table
	Stats  BuildStats
	ratio  float64 // N / sample rows
}

// NewVerdictSim draws a k-row uniform sample of tb; scale multiplies the
// physical row count to the logical table size (1 for no scaling).
func NewVerdictSim(tb *table.Table, k int, scale float64, seed int64) (*VerdictSim, error) {
	if tb.NumRows() == 0 {
		return nil, errors.New("baseline: empty table")
	}
	if scale <= 0 {
		scale = 1
	}
	t0 := time.Now()
	s := sample.UniformTable(tb, k, seed)
	v := &VerdictSim{
		Name:   tb.Name,
		Sample: s,
		N:      float64(tb.NumRows()) * scale,
	}
	v.ratio = v.N / float64(s.NumRows())
	v.Stats = BuildStats{
		SampleTime: time.Since(t0),
		SampleRows: s.NumRows(),
		Bytes:      sampleBytes(s),
	}
	return v, nil
}

// Query answers req over the retained sample.
func (v *VerdictSim) Query(req exact.Request) (*exact.Result, error) {
	return scanScaled(v.Sample, req, func(int) float64 { return v.ratio })
}

// scanScaled runs the weighted scan with a per-row weight function over the
// rows the exact engine's filter selects.
func scanScaled(tb *table.Table, req exact.Request, weight func(row int) float64) (*exact.Result, error) {
	ycol, err := tb.Floats(req.Y)
	if err != nil {
		return nil, err
	}
	wantQ := req.AF == exact.Percentile
	if req.Group == "" {
		acc := weightedAccum{wantQ: wantQ}
		if err := exact.Each(tb, req.Predicates, req.Equals, func(i int) { acc.add(ycol[i], weight(i)) }); err != nil {
			return nil, err
		}
		val, err := acc.result(req.AF, req.P)
		if err != nil {
			return nil, err
		}
		return &exact.Result{Value: val}, nil
	}
	gc := tb.Column(req.Group)
	if gc == nil {
		return nil, fmt.Errorf("baseline: no group column %q", req.Group)
	}
	if gc.Type != table.Int64 {
		return nil, fmt.Errorf("baseline: group column %q must be INT64", req.Group)
	}
	accs := make(map[int64]*weightedAccum)
	err = exact.Each(tb, req.Predicates, req.Equals, func(i int) {
		g := gc.Ints[i]
		a, ok := accs[g]
		if !ok {
			a = &weightedAccum{wantQ: wantQ}
			accs[g] = a
		}
		a.add(ycol[i], weight(i))
	})
	if err != nil {
		return nil, err
	}
	out := &exact.Result{Groups: make(map[int64]float64, len(accs))}
	for g, a := range accs {
		val, err := a.result(req.AF, req.P)
		if err != nil {
			continue
		}
		out.Groups[g] = val
	}
	return out, nil
}

// JoinQuery answers an aggregate over sample ⨝ dim, computing the join at
// query time the way VerdictDB must (§2.2): the retained fact sample is
// joined with the (small) dimension table per query, then scanned with
// scaling. The join cost is the point of the paper's Fig. 21 comparison.
func (v *VerdictSim) JoinQuery(dim *table.Table, leftKey, rightKey string, req exact.Request) (*exact.Result, error) {
	joined, err := table.EquiJoin(v.Sample, dim, leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	return scanScaled(joined, req, func(int) float64 { return v.ratio })
}

// BlinkSim answers queries from a stratified sample with per-stratum
// Horvitz–Thompson weights, like BlinkDB's stratified samples.
type BlinkSim struct {
	Name    string
	Sample  *table.Table
	weights []float64 // per retained row
	Stats   BuildStats
}

// NewBlinkSim stratifies tb on stratCol with a total budget of k rows and a
// floor of minPer per stratum; scale lifts physical to logical cardinality.
func NewBlinkSim(tb *table.Table, stratCol string, k, minPer int, scale float64, seed int64) (*BlinkSim, error) {
	if scale <= 0 {
		scale = 1
	}
	t0 := time.Now()
	strata, err := sample.Stratified(tb, stratCol, k, minPer, seed)
	if err != nil {
		return nil, err
	}
	// Stratum sizes in the base table.
	gc := tb.Column(stratCol)
	sizes := make(map[int64]int)
	for _, v := range gc.Ints {
		sizes[v]++
	}
	var rows []int
	var weights []float64
	gvals := make([]int64, 0, len(strata))
	for g := range strata {
		gvals = append(gvals, g)
	}
	sort.Slice(gvals, func(i, j int) bool { return gvals[i] < gvals[j] })
	for _, g := range gvals {
		idx := strata[g]
		w := float64(sizes[g]) * scale / float64(len(idx))
		for _, i := range idx {
			rows = append(rows, i)
			weights = append(weights, w)
		}
	}
	s := tb.SelectRows(rows)
	b := &BlinkSim{Name: tb.Name, Sample: s, weights: weights}
	b.Stats = BuildStats{
		SampleTime: time.Since(t0),
		SampleRows: s.NumRows(),
		Bytes:      sampleBytes(s) + 8*len(weights),
	}
	return b, nil
}

// Query answers req over the stratified sample.
func (b *BlinkSim) Query(req exact.Request) (*exact.Result, error) {
	return scanScaled(b.Sample, req, func(i int) float64 { return b.weights[i] })
}

// SampleExact is the Appendix C baseline: an exact-answer engine (MonetDB)
// pointed at a uniform sample, with COUNT/SUM scaled by the sampling ratio.
// It shares VerdictSim's math but is named separately because the paper
// treats it as a distinct system with distinct (much faster, C-speed)
// query times.
type SampleExact struct {
	*VerdictSim
}

// NewSampleExact draws the uniform sample for the MonetDB-style baseline.
func NewSampleExact(tb *table.Table, k int, scale float64, seed int64) (*SampleExact, error) {
	v, err := NewVerdictSim(tb, k, scale, seed)
	if err != nil {
		return nil, err
	}
	return &SampleExact{VerdictSim: v}, nil
}
