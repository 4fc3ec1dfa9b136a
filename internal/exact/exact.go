// Package exact implements a single-pass exact aggregation engine over the
// columnar tables of internal/table. It serves two roles from the paper's
// architecture (Fig. 1): the "Exact QP" engine that sits below DBEst for
// queries no model can answer, and the ground-truth oracle the evaluation
// harness measures relative errors against. It also doubles as the
// "MonetDB-style" compute kernel the Appendix C baseline runs over samples.
package exact

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dbest/internal/table"
)

// AggFunc enumerates the aggregate functions DBEst supports (§2.2).
type AggFunc int

const (
	Count AggFunc = iota
	Sum
	Avg
	Variance
	StdDev
	Percentile
)

var aggNames = map[AggFunc]string{
	Count: "COUNT", Sum: "SUM", Avg: "AVG",
	Variance: "VARIANCE", StdDev: "STDDEV", Percentile: "PERCENTILE",
}

func (a AggFunc) String() string {
	if s, ok := aggNames[a]; ok {
		return s
	}
	return fmt.Sprintf("AggFunc(%d)", int(a))
}

// ParseAggFunc converts an SQL aggregate-function name (case-insensitive is
// handled by the parser; here names are upper-case) to an AggFunc.
func ParseAggFunc(name string) (AggFunc, error) {
	for a, s := range aggNames {
		if s == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("exact: unknown aggregate function %q", name)
}

// Range is a closed interval predicate x BETWEEN Lb AND Ub.
type Range struct {
	Column string
	Lb, Ub float64
}

// Equal is a nominal equality predicate col = Value (String columns) or
// col = numeric value rendered as a string (Int64 columns).
type Equal struct {
	Column string
	Value  string
}

// Request describes one aggregate computation: AF(Y) over the rows of a
// table satisfying every predicate, optionally grouped by Group.
type Request struct {
	AF         AggFunc
	Y          string  // aggregate attribute; for density AFs equals the predicate column
	Predicates []Range // conjunctive range predicates
	Equals     []Equal // conjunctive nominal equality predicates
	Group      string  // optional GROUP BY column (Int64)
	P          float64 // percentile point for AF == Percentile, in [0, 1]
}

// moments are the streaming sums of one selection, added in row order.
type moments struct {
	n, sum, sumSq float64
	vals          []float64 // the selected values, retained for PERCENTILE only
}

func (m *moments) add(v float64) {
	m.n++
	m.sum += v
	m.sumSq += v * v
}

func (m *moments) result(af AggFunc, p float64) (float64, error) {
	switch af {
	case Count:
		return m.n, nil
	case Sum:
		return m.sum, nil
	case Avg:
		if m.n == 0 {
			return 0, errors.New("exact: AVG over empty selection")
		}
		return m.sum / m.n, nil
	case Variance, StdDev:
		if m.n == 0 {
			return 0, errors.New("exact: VARIANCE over empty selection")
		}
		mean := m.sum / m.n
		v := m.sumSq/m.n - mean*mean
		if v < 0 {
			v = 0
		}
		if af == StdDev {
			return math.Sqrt(v), nil
		}
		return v, nil
	case Percentile:
		if len(m.vals) == 0 {
			return 0, errors.New("exact: PERCENTILE over empty selection")
		}
		return quantile(m.vals, p), nil
	default:
		return 0, fmt.Errorf("exact: unsupported aggregate %v", af)
	}
}

// quantile is the p-quantile of vals, interpolated linearly between the
// closest ranks of sort.Float64s order. It takes those ranks by selection
// rather than sorting, and reorders vals.
func quantile(vals []float64, p float64) float64 {
	if p <= 0 {
		return selectRank(vals, 0)
	}
	if p >= 1 {
		return selectRank(vals, len(vals)-1)
	}
	pos := p * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	vlo := selectRank(vals, lo)
	vhi := vlo
	if hi > lo {
		// selectRank left vals[lo+1:] at or above rank lo: rank hi is its
		// least element.
		vhi = vals[hi]
		for _, v := range vals[hi+1:] {
			if less(v, vhi) {
				vhi = v
			}
		}
	}
	return vlo*(1-frac) + vhi*frac
}

// less is sort.Float64s's order: NaNs first, then ascending.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank reorders a so that a[k] holds the value sort.Float64s would
// put there, with nothing after it ordered before it, and returns a[k]. It
// is quickselect with a median-of-three pivot and a three-way partition, so
// runs of equal values cost one pass; a range still unresolved after
// 2·log2(n) rounds is sorted instead.
func selectRank(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			break
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		if less(y, x) {
			x, y = y, x
		}
		if less(z, y) {
			y = z
			if less(y, x) {
				y = x
			}
		}
		// a[lo:lt] < y, a[lt:i] == y, a[gt+1:hi+1] > y.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := a[i]; {
			case less(v, y):
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case less(y, v):
				a[gt], a[i] = v, a[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return a[k]
		}
	}
	return a[k]
}

// Result is an exact answer, optionally per group.
type Result struct {
	Value  float64           // scalar answer (no GROUP BY)
	Groups map[int64]float64 // per-group answers (GROUP BY)
}

// Query computes the exact answer for req over tb: one pass of the block
// filter, and a second that retains the selected values for PERCENTILE.
func Query(tb *table.Table, req Request) (*Result, error) {
	yc, err := numeric(tb, req.Y)
	if err != nil {
		return nil, err
	}
	var s selection
	if err := s.init(tb, yc.Len(), req.Predicates, req.Equals); err != nil {
		return nil, err
	}
	var groups []int64
	if req.Group != "" {
		gc := tb.Column(req.Group)
		if gc == nil {
			return nil, fmt.Errorf("exact: no group column %q", req.Group)
		}
		if gc.Type != table.Int64 {
			return nil, fmt.Errorf("exact: group column %q must be INT64", req.Group)
		}
		groups = gc.Ints
	}
	if yc.Type == table.Int64 {
		return query(&s, yc.Ints, groups, req)
	}
	return query(&s, yc.Floats, groups, req)
}

// query aggregates ys over the rows s selects, in row order, so every sum
// is the one a row-at-a-time loop would add up.
func query[T int64 | float64](s *selection, ys []T, groups []int64, req Request) (*Result, error) {
	if groups == nil {
		var n, sum, sumSq float64
		for base := 0; base < s.n; base += blockSize {
			yb := ys[base:]
			for _, i := range s.block(base) {
				v := float64(yb[i])
				n++
				sum += v
				sumSq += v * v
			}
		}
		m := moments{n: n, sum: sum, sumSq: sumSq}
		if req.AF == Percentile {
			m.vals = make([]float64, 0, int(n))
			for base := 0; base < s.n; base += blockSize {
				yb := ys[base:]
				for _, i := range s.block(base) {
					m.vals = append(m.vals, float64(yb[i]))
				}
			}
		}
		v, err := m.result(req.AF, req.P)
		if err != nil {
			return nil, err
		}
		return &Result{Value: v}, nil
	}

	accs := make(map[int64]*moments)
	for base := 0; base < s.n; base += blockSize {
		yb, gb := ys[base:], groups[base:]
		for _, i := range s.block(base) {
			a := accs[gb[i]]
			if a == nil {
				a = new(moments)
				accs[gb[i]] = a
			}
			a.add(float64(yb[i]))
		}
	}
	if req.AF == Percentile {
		// One buffer holds every group's values, carved by group counts.
		total := 0
		for _, a := range accs {
			total += int(a.n)
		}
		buf := make([]float64, total)
		for _, a := range accs {
			a.vals, buf = buf[:0:int(a.n)], buf[int(a.n):]
		}
		for base := 0; base < s.n; base += blockSize {
			yb, gb := ys[base:], groups[base:]
			for _, i := range s.block(base) {
				a := accs[gb[i]]
				a.vals = append(a.vals, float64(yb[i]))
			}
		}
	}
	out := &Result{Groups: make(map[int64]float64, len(accs))}
	for g, a := range accs {
		v, err := a.result(req.AF, req.P)
		if err != nil {
			continue // empty group under this AF: skip, as SQL would
		}
		out.Groups[g] = v
	}
	return out, nil
}
