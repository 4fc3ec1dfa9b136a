package exact

import (
	"fmt"
	"math"
	"strconv"

	"dbest/internal/table"
)

// The filter is the exact engine's one scan kernel, the block-at-a-time
// selection of MonetDB/X100 (Boncz, Zukowski & Nes, CIDR 2005). It walks a
// table in blocks of blockSize rows. In each block the first predicate
// writes the offsets of its matching rows into a selection vector without a
// branch on the data (Ross, "Selection Conditions in Main Memory", TODS
// 2004), and every later predicate compacts the vector the same way.
// Predicates compare in their column's own type, so no query converts or
// copies a column. The offsets come out in ascending order, so a caller
// that sums over them adds in row order.

// blockSize is the number of rows one selection vector covers.
const blockSize = 1024

// rangePred is a closed range predicate bound to its numeric column.
type rangePred struct {
	col    *table.Column
	lb, ub float64
}

// eqPred is an equality predicate whose literal is resolved, once per
// query, to a value of its column's type; only that type's field is set.
type eqPred struct {
	col  *table.Column
	i    int64  // Int64 column
	bits uint64 // Float64 column, a non-NaN literal
	nan  bool   // Float64 column, the literal "NaN"
	s    string // String column
}

// selection is a compiled conjunction of predicates and its selection
// vector.
type selection struct {
	n      int // rows to scan; 0 when an equality literal can match no row
	ranges []rangePred
	eqs    []eqPred
	sel    [blockSize]int32
}

// init binds ranges and equals to tb's columns for a scan over its first n
// rows.
func (s *selection) init(tb *table.Table, n int, ranges []Range, equals []Equal) error {
	s.n = n
	if len(ranges) > 0 {
		s.ranges = make([]rangePred, len(ranges))
	}
	for k, r := range ranges {
		c, err := numeric(tb, r.Column)
		if err != nil {
			return err
		}
		// A NaN bound bounds nothing, as under the test "v < lb || v > ub".
		lb, ub := r.Lb, r.Ub
		if math.IsNaN(lb) {
			lb = math.Inf(-1)
		}
		if math.IsNaN(ub) {
			ub = math.Inf(1)
		}
		s.ranges[k] = rangePred{c, lb, ub}
	}
	if len(equals) > 0 {
		s.eqs = make([]eqPred, len(equals))
	}
	for k, e := range equals {
		c := tb.Column(e.Column)
		if c == nil {
			return fmt.Errorf("exact: no column %q", e.Column)
		}
		var ok bool
		if s.eqs[k], ok = resolveEq(c, e.Value); !ok {
			s.n = 0
		}
	}
	return nil
}

// numeric returns tb's column name when it is Float64 or Int64, and the
// error Table.Floats gives otherwise.
func numeric(tb *table.Table, name string) (*table.Column, error) {
	c := tb.Column(name)
	if c == nil {
		return nil, fmt.Errorf("table %s: no column %q", tb.Name, name)
	}
	if c.Type != table.Float64 && c.Type != table.Int64 {
		return nil, fmt.Errorf("table %s: column %q is %s, not numeric", tb.Name, name, c.Type)
	}
	return c, nil
}

// resolveEq resolves the literal v of an equality on c. A row matches when
// Column.Str renders it as v, so a numeric literal matches only in its
// canonical rendering (%d, %g): '05', '+3' and '3.0' match no Int64 row.
// ok is false when no value of c's type renders as v.
func resolveEq(c *table.Column, v string) (p eqPred, ok bool) {
	p.col = c
	var buf [32]byte
	switch c.Type {
	case table.Int64:
		i, err := strconv.ParseInt(v, 10, 64)
		p.i = i
		return p, err == nil && string(strconv.AppendInt(buf[:0], i, 10)) == v
	case table.Float64:
		// %g renders distinct non-NaN floats distinctly (-0 too), and
		// every NaN as "NaN".
		f, err := strconv.ParseFloat(v, 64)
		p.bits, p.nan = math.Float64bits(f), math.IsNaN(f)
		return p, err == nil && string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) == v
	default:
		p.s = v
		return p, true
	}
}

// block selects the rows of [base, base+blockSize) ∩ [0, n) that pass
// every predicate and returns their offsets from base, ascending.
func (s *selection) block(base int) []int32 {
	end := min(base+blockSize, s.n)
	ranges := s.ranges
	var k int
	if len(ranges) == 0 {
		k = end - base
		for i := range k {
			s.sel[i] = int32(i)
		}
	} else {
		r := &ranges[0]
		if r.col.Type == table.Int64 {
			k = selectRange(&s.sel, r.col.Ints[base:end], r.lb, r.ub)
		} else {
			k = selectRange(&s.sel, r.col.Floats[base:end], r.lb, r.ub)
		}
		ranges = ranges[1:]
	}
	for j := range ranges {
		r := &ranges[j]
		if r.col.Type == table.Int64 {
			k = refineRange(s.sel[:k], r.col.Ints[base:end], r.lb, r.ub)
		} else {
			k = refineRange(s.sel[:k], r.col.Floats[base:end], r.lb, r.ub)
		}
	}
	for j := range s.eqs {
		e := &s.eqs[j]
		switch e.col.Type {
		case table.Int64:
			k = refineEq(s.sel[:k], e.col.Ints[base:end], e.i)
		case table.Float64:
			k = refineFloatEq(s.sel[:k], e.col.Floats[base:end], e.bits, e.nan)
		default:
			k = refineEq(s.sel[:k], e.col.Strings[base:end], e.s)
		}
	}
	return s.sel[:k]
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selectRange writes the offsets of col's values inside [lb, ub] to sel
// and returns their count. A NaN fails both compares.
func selectRange[T int64 | float64](sel *[blockSize]int32, col []T, lb, ub float64) int {
	k := 0
	for i, x := range col {
		v := float64(x)
		sel[k] = int32(i)
		k += b2i(v >= lb) & b2i(v <= ub)
	}
	return k
}

// refineRange keeps the offsets in sel whose value of col is inside
// [lb, ub], in place, and returns their count.
func refineRange[T int64 | float64](sel []int32, col []T, lb, ub float64) int {
	k := 0
	for _, i := range sel {
		v := float64(col[i])
		sel[k] = i
		k += b2i(v >= lb) & b2i(v <= ub)
	}
	return k
}

// refineEq keeps the offsets in sel whose value of col is v.
func refineEq[T int64 | string](sel []int32, col []T, v T) int {
	k := 0
	for _, i := range sel {
		sel[k] = i
		k += b2i(col[i] == v)
	}
	return k
}

// refineFloatEq keeps the offsets in sel whose value of col has the bits
// given, or is any NaN when nan is set.
func refineFloatEq(sel []int32, col []float64, bits uint64, nan bool) int {
	k := 0
	for _, i := range sel {
		x := col[i]
		sel[k] = i
		k += b2i(math.Float64bits(x) == bits) | b2i(nan && x != x)
	}
	return k
}

// Each calls fn with the index of every row of tb that satisfies every
// range and equality predicate, in ascending order. It is Query's filter,
// for callers that aggregate the rows their own way.
func Each(tb *table.Table, ranges []Range, equals []Equal, fn func(row int)) error {
	var s selection
	if err := s.init(tb, tb.NumRows(), ranges, equals); err != nil {
		return err
	}
	for base := 0; base < s.n; base += blockSize {
		for _, i := range s.block(base) {
			fn(base + int(i))
		}
	}
	return nil
}
