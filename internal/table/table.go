// Package table provides an in-memory columnar table representation used as
// the storage layer beneath the DBEst engine, its baselines, and the exact
// query processor. It plays the role of the paper's "Data Store" (Fig. 1):
// a local file system, RDBMS, or distributed FS — here, a columnar in-memory
// store with CSV import/export.
package table

import (
	"fmt"
	"sort"
)

// ColType describes the logical type of a column.
type ColType int

const (
	// Float64 is a numeric column (measures, ordinal attributes).
	Float64 ColType = iota
	// Int64 is an integer column (keys, ordinal categorical attributes).
	Int64
	// String is a nominal categorical column.
	String
)

func (t ColType) String() string {
	switch t {
	case Float64:
		return "FLOAT64"
	case Int64:
		return "INT64"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column is a single named, typed column. Exactly one of the value slices is
// populated, according to Type.
type Column struct {
	Name    string
	Type    ColType
	Floats  []float64
	Ints    []int64
	Strings []string
}

// Len returns the number of rows stored in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Float64:
		return len(c.Floats)
	case Int64:
		return len(c.Ints)
	case String:
		return len(c.Strings)
	}
	return 0
}

// Float returns row i as a float64. String columns are not convertible and
// return 0; use Str for those.
func (c *Column) Float(i int) float64 {
	switch c.Type {
	case Float64:
		return c.Floats[i]
	case Int64:
		return float64(c.Ints[i])
	}
	return 0
}

// Str returns row i rendered as a string.
func (c *Column) Str(i int) string {
	switch c.Type {
	case Float64:
		return fmt.Sprintf("%g", c.Floats[i])
	case Int64:
		return fmt.Sprintf("%d", c.Ints[i])
	case String:
		return c.Strings[i]
	}
	return ""
}

// Partition is a table's range-partition metadata: the column whose domain
// was split and the K+1 cut points of the K contiguous range shards. It is
// attached by the engine when a sharded model ensemble is trained over the
// table, and rides along through Clone so copy-on-write append snapshots
// keep reporting the layout their models were sharded under. The metadata
// is descriptive — rows are not physically reordered.
type Partition struct {
	Col    string
	Bounds []float64
}

// Shards returns the number of range shards the partition describes.
//
//lint:deadexport public API: callers of Engine.TablePartitioning reach it through the dbest.TablePartition alias
func (p *Partition) Shards() int {
	if p == nil || len(p.Bounds) < 2 {
		return 0
	}
	return len(p.Bounds) - 1
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	Columns []*Column
	// Part, when non-nil, records the range-partition layout of the sharded
	// model ensemble most recently trained over this table.
	Part  *Partition
	index map[string]int
}

// New creates an empty table with the given name.
func New(name string) *Table {
	return &Table{Name: name, index: make(map[string]int)}
}

// AddColumn appends a column and registers it by name. It returns the column
// so callers can fill it in place.
func (t *Table) AddColumn(name string, typ ColType) *Column {
	c := &Column{Name: name, Type: typ}
	if t.index == nil {
		t.index = make(map[string]int)
	}
	t.index[name] = len(t.Columns)
	t.Columns = append(t.Columns, c)
	return c
}

// AddFloatColumn adds a Float64 column backed by the given data (not copied).
func (t *Table) AddFloatColumn(name string, data []float64) *Column {
	c := t.AddColumn(name, Float64)
	c.Floats = data
	return c
}

// AddIntColumn adds an Int64 column backed by the given data (not copied).
func (t *Table) AddIntColumn(name string, data []int64) *Column {
	c := t.AddColumn(name, Int64)
	c.Ints = data
	return c
}

// AddStringColumn adds a String column backed by the given data (not copied).
func (t *Table) AddStringColumn(name string, data []string) *Column {
	c := t.AddColumn(name, String)
	c.Strings = data
	return c
}

// Column returns the column with the given name, or nil if absent.
func (t *Table) Column(name string) *Column {
	if t.index == nil {
		t.rebuildIndex()
	}
	i, ok := t.index[name]
	if !ok {
		return nil
	}
	return t.Columns[i]
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool { return t.Column(name) != nil }

// ColumnNames returns the names of all columns in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

func (t *Table) rebuildIndex() {
	t.index = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		t.index[c.Name] = i
	}
}

// NumRows returns the number of rows (the length of the first column).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// Validate checks that all columns have equal length.
func (t *Table) Validate() error {
	if len(t.Columns) == 0 {
		return nil
	}
	n := t.Columns[0].Len()
	for _, c := range t.Columns[1:] {
		if c.Len() != n {
			return fmt.Errorf("table %s: column %s has %d rows, want %d", t.Name, c.Name, c.Len(), n)
		}
	}
	return nil
}

// Floats returns the named column as a []float64, converting Int64 columns.
// It returns an error for String columns or missing columns.
func (t *Table) Floats(name string) ([]float64, error) {
	c := t.Column(name)
	if c == nil {
		return nil, fmt.Errorf("table %s: no column %q", t.Name, name)
	}
	switch c.Type {
	case Float64:
		return c.Floats, nil
	case Int64:
		out := make([]float64, len(c.Ints))
		for i, v := range c.Ints {
			out[i] = float64(v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("table %s: column %q is %s, not numeric", t.Name, name, c.Type)
	}
}

// SelectRows materializes a new table containing only the rows whose indices
// are listed in idx, in order. Column data is copied.
func (t *Table) SelectRows(idx []int) *Table {
	out := New(t.Name)
	for _, c := range t.Columns {
		nc := out.AddColumn(c.Name, c.Type)
		switch c.Type {
		case Float64:
			nc.Floats = make([]float64, len(idx))
			for j, i := range idx {
				nc.Floats[j] = c.Floats[i]
			}
		case Int64:
			nc.Ints = make([]int64, len(idx))
			for j, i := range idx {
				nc.Ints[j] = c.Ints[i]
			}
		case String:
			nc.Strings = make([]string, len(idx))
			for j, i := range idx {
				nc.Strings[j] = c.Strings[i]
			}
		}
	}
	return out
}

// AppendRow appends one row given values in column order. Each value must
// match its column's type: Float64 accepts float64, int or int64; Int64
// accepts int, int64, or a float64 with no fractional part; String accepts
// string. On a type or arity mismatch no column is modified.
func (t *Table) AppendRow(vals ...interface{}) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("table %s: row has %d values, want %d", t.Name, len(vals), len(t.Columns))
	}
	// Coerce the whole row before touching any column so a rejected row
	// never leaves the table with ragged column lengths.
	type cell struct {
		f float64
		n int64
		s string
	}
	cells := make([]cell, len(vals))
	for j, c := range t.Columns {
		f, n, s, err := coerce(c, vals[j])
		if err != nil {
			return fmt.Errorf("table %s: column %s: %w", t.Name, c.Name, err)
		}
		cells[j] = cell{f, n, s}
	}
	for j, c := range t.Columns {
		switch c.Type {
		case Float64:
			c.Floats = append(c.Floats, cells[j].f)
		case Int64:
			c.Ints = append(c.Ints, cells[j].n)
		case String:
			c.Strings = append(c.Strings, cells[j].s)
		}
	}
	return nil
}

// coerce converts v to column c's storage type, or reports why it cannot.
func coerce(c *Column, v interface{}) (f float64, n int64, s string, err error) {
	switch c.Type {
	case Float64:
		switch x := v.(type) {
		case float64:
			return x, 0, "", nil
		case int:
			return float64(x), 0, "", nil
		case int64:
			return float64(x), 0, "", nil
		}
	case Int64:
		switch x := v.(type) {
		case int:
			return 0, int64(x), "", nil
		case int64:
			return 0, x, "", nil
		case float64:
			if x == float64(int64(x)) {
				return 0, int64(x), "", nil
			}
			return 0, 0, "", fmt.Errorf("value %v has a fractional part, column is INT64", x)
		}
	case String:
		if x, ok := v.(string); ok {
			return 0, 0, x, nil
		}
	}
	return 0, 0, "", fmt.Errorf("value %v (%T) does not match column type %s", v, v, c.Type)
}

// AppendTable appends every row of src. The schemas must match exactly:
// same column names and types in the same order.
func (t *Table) AppendTable(src *Table) error {
	if len(src.Columns) != len(t.Columns) {
		return fmt.Errorf("table %s: appending table with %d columns, want %d", t.Name, len(src.Columns), len(t.Columns))
	}
	for j, c := range t.Columns {
		sc := src.Columns[j]
		if sc.Name != c.Name || sc.Type != c.Type {
			return fmt.Errorf("table %s: column %d is %s %s, want %s %s",
				t.Name, j, sc.Type, sc.Name, c.Type, c.Name)
		}
	}
	if err := src.Validate(); err != nil {
		return err
	}
	for j, c := range t.Columns {
		sc := src.Columns[j]
		switch c.Type {
		case Float64:
			c.Floats = append(c.Floats, sc.Floats...)
		case Int64:
			c.Ints = append(c.Ints, sc.Ints...)
		case String:
			c.Strings = append(c.Strings, sc.Strings...)
		}
	}
	return nil
}

// Clone returns a copy-on-write clone: new Table and Column structs that
// share the underlying value slices. Appending to the clone never changes
// a row visible through the original (append either grows into spare
// capacity past the original's length or reallocates), which is how the
// engine ingests rows while concurrent readers keep scanning a consistent
// snapshot.
func (t *Table) Clone() *Table {
	out := New(t.Name)
	out.Part = t.Part
	for _, c := range t.Columns {
		nc := out.AddColumn(c.Name, c.Type)
		nc.Floats = c.Floats
		nc.Ints = c.Ints
		nc.Strings = c.Strings
	}
	return out
}

// DistinctInts returns the sorted distinct values of an Int64 column. This is
// how GROUP BY values are recorded from the original table during training
// (paper §3, Sampling).
//
//lint:deadexport public API through the dbest.Table alias; the datagen tests check generated cardinalities with it
func (t *Table) DistinctInts(name string) ([]int64, error) {
	c := t.Column(name)
	if c == nil {
		return nil, fmt.Errorf("table %s: no column %q", t.Name, name)
	}
	if c.Type != Int64 {
		return nil, fmt.Errorf("table %s: column %q is %s, want INT64", t.Name, name, c.Type)
	}
	set := make(map[int64]struct{})
	for _, v := range c.Ints {
		set[v] = struct{}{}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// DistinctCount returns the exact number of distinct values in a column of
// any type — the ground-truth oracle for the HLL sketch estimator and the
// exact fallback behind COUNT(DISTINCT x). DistinctInts remains the
// Int64-only value-listing form GROUP BY training uses.
func (t *Table) DistinctCount(name string) (int, error) {
	c := t.Column(name)
	if c == nil {
		return 0, fmt.Errorf("table %s: no column %q", t.Name, name)
	}
	switch c.Type {
	case Int64:
		set := make(map[int64]struct{})
		for _, v := range c.Ints {
			set[v] = struct{}{}
		}
		return len(set), nil
	case Float64:
		set := make(map[float64]struct{})
		for _, v := range c.Floats {
			set[v] = struct{}{}
		}
		return len(set), nil
	case String:
		set := make(map[string]struct{})
		for _, v := range c.Strings {
			set[v] = struct{}{}
		}
		return len(set), nil
	}
	return 0, fmt.Errorf("table %s: column %q has unsupported type %s", t.Name, name, c.Type)
}

// EquiJoin computes the inner equi-join of t and right on leftKey = rightKey
// using a hash join (build on the smaller input). Columns of the result carry
// their original names; on a name clash the right column is prefixed with the
// right table's name and a dot. This is the join-precomputation substrate the
// paper uses before sampling a join result (§2.2, first approach).
func EquiJoin(left, right *Table, leftKey, rightKey string) (*Table, error) {
	lc := left.Column(leftKey)
	rc := right.Column(rightKey)
	if lc == nil {
		return nil, fmt.Errorf("join: %s has no column %q", left.Name, leftKey)
	}
	if rc == nil {
		return nil, fmt.Errorf("join: %s has no column %q", right.Name, rightKey)
	}
	if lc.Type == String || rc.Type == String {
		return nil, fmt.Errorf("join: string join keys are not supported")
	}

	// Build hash table on the right input (dimension tables are small in all
	// paper workloads); probe with the left.
	build := make(map[int64][]int)
	for i := 0; i < rc.Len(); i++ {
		k := asInt(rc, i)
		build[k] = append(build[k], i)
	}
	var leftIdx, rightIdx []int
	for i := 0; i < lc.Len(); i++ {
		if matches, ok := build[asInt(lc, i)]; ok {
			for _, j := range matches {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, j)
			}
		}
	}

	out := New(left.Name + "_join_" + right.Name)
	used := make(map[string]bool)
	appendSide := func(src *Table, idx []int, prefix string) {
		for _, c := range src.Columns {
			name := c.Name
			if used[name] {
				name = prefix + "." + name
			}
			used[name] = true
			nc := out.AddColumn(name, c.Type)
			switch c.Type {
			case Float64:
				nc.Floats = make([]float64, len(idx))
				for j, i := range idx {
					nc.Floats[j] = c.Floats[i]
				}
			case Int64:
				nc.Ints = make([]int64, len(idx))
				for j, i := range idx {
					nc.Ints[j] = c.Ints[i]
				}
			case String:
				nc.Strings = make([]string, len(idx))
				for j, i := range idx {
					nc.Strings[j] = c.Strings[i]
				}
			}
		}
	}
	appendSide(left, leftIdx, left.Name)
	appendSide(right, rightIdx, right.Name)
	return out, nil
}

func asInt(c *Column, i int) int64 {
	if c.Type == Int64 {
		return c.Ints[i]
	}
	return int64(c.Floats[i])
}
