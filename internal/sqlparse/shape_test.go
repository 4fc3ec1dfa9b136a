package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

func mustShape(t *testing.T, sql string) (string, []Bind) {
	t.Helper()
	key, binds, err := Shape(nil, nil, sql)
	if err != nil {
		t.Fatalf("Shape(%q): %v", sql, err)
	}
	return string(key), binds
}

func TestShapeLiftsLiterals(t *testing.T) {
	cases := []struct {
		sql, key string
		binds    []Bind
	}{
		{"select avg ( y ) from t where x between 100.0 and 2e2 ;",
			"SELECT AVG(y)FROM t WHERE x BETWEEN ? AND ?", []Bind{{Num: 100}, {Num: 200}}},
		{"SELECT PERCENTILE(x, 0.5) FROM t", "SELECT PERCENTILE(x,?)FROM t", []Bind{{Num: 0.5}}},
		{"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2 AND c = 'O''Brien' AND z BETWEEN -3 AND 4",
			"SELECT AVG(y)FROM t WHERE x BETWEEN ? AND ? AND c = '?' AND z BETWEEN ? AND ?",
			[]Bind{{Num: 1}, {Num: 2}, {Str: "O'Brien"}, {Num: -3}, {Num: 4}}},
		{"SELECT COUNT(*) FROM t", "SELECT COUNT(*)FROM t", nil},
		// The planner branches on TOP's k and WITHIN's tolerance: they are
		// part of the shape, spelled canonically.
		{"SELECT TOP 10.0(x) FROM t", "SELECT TOP 10(x)FROM t", nil},
		{"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2 within 2.50 %",
			"SELECT AVG(y)FROM t WHERE x BETWEEN ? AND ? within 2.5%", []Bind{{Num: 1}, {Num: 2}}},
		// A column that happens to be named top or within lifts as usual.
		{"SELECT AVG(top) FROM t WHERE within BETWEEN 1 AND 2",
			"SELECT AVG(top)FROM t WHERE within BETWEEN ? AND ?", []Bind{{Num: 1}, {Num: 2}}},
	}
	for _, c := range cases {
		key, binds := mustShape(t, c.sql)
		if key != c.key || !reflect.DeepEqual(binds, c.binds) {
			t.Errorf("Shape(%q) = %q %v, want %q %v", c.sql, key, binds, c.key, c.binds)
		}
	}
}

func TestShapeDistinguishes(t *testing.T) {
	pairs := [][2]string{
		{"SELECT TOP 3(x) FROM t", "SELECT TOP 4(x) FROM t"},
		{"SELECT AVG(y) FROM t WITHIN 1%", "SELECT AVG(y) FROM t WITHIN 2%"},
		{"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2", "SELECT SUM(y) FROM t WHERE x BETWEEN 1 AND 2"},
		{"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2", "SELECT AVG(y) FROM t WHERE X BETWEEN 1 AND 2"},
		// A semicolon anywhere but the end makes a different statement (one
		// the parser rejects): it must not be served the valid one's plan.
		{"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2;", "SELECT AVG(y) ; FROM t WHERE x BETWEEN 1 AND 2"},
	}
	for _, p := range pairs {
		a, _ := mustShape(t, p[0])
		b, _ := mustShape(t, p[1])
		if a == b {
			t.Errorf("shapes collide: %q vs %q -> %q", p[0], p[1], a)
		}
	}
}

// TestShapeErrorsAreTheLexers: Shape keeps every rejection the lexer makes,
// word for word.
func TestShapeErrorsAreTheLexers(t *testing.T) {
	for _, sql := range []string{"SELECT ? FROM t", "SELECT AVG(y) FROM t WHERE x BETWEEN 1.2.3 AND 4", "SELECT AVG(y) FROM t WHERE c = 'open"} {
		_, _, err := Shape(nil, nil, sql)
		_, lerr := lex(sql)
		if err == nil || lerr == nil || err.Error() != lerr.Error() {
			t.Errorf("Shape(%q) err = %v, lex err = %v", sql, err, lerr)
		}
	}
}

func TestShapeAllocatesNothing(t *testing.T) {
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_channel = 'web' AND ss_sold_date_sk BETWEEN 2.4512345e+06 AND 2.4513345e+06"
	probe := map[string]bool{}
	key, _ := mustShape(t, sql)
	probe[key] = true
	hits := 0
	allocs := testing.AllocsPerRun(100, func() {
		var kb [256]byte
		var bb [4]Bind
		if key, binds, err := Shape(kb[:0], bb[:0], sql); err == nil && len(binds) == 3 && probe[string(key)] {
			hits++
		}
	})
	if allocs != 0 || hits != 101 { // AllocsPerRun warms up with one extra run
		t.Fatalf("Shape + probe allocated %v times over %d hits, want 0 over 101", allocs, hits)
	}
}

func TestParseRecordsBindSlots(t *testing.T) {
	q := mustParse(t, "SELECT PERCENTILE(x, 0.9), AVG(y) FROM t WHERE c = 'web' AND x BETWEEN 1 AND 2")
	if q.Binds != 4 || q.Aggregates[0].PSlot != 0 || q.Equals[0].Slot != 1 ||
		q.Where[0].LbSlot != 2 || q.Where[0].UbSlot != 3 {
		t.Fatalf("slots = %+v", q)
	}
	// Numbers kept in the shape take no slot.
	q = mustParse(t, "SELECT TOP 5(c) FROM t WHERE x BETWEEN 1 AND 2 WITHIN 3%")
	if q.Binds != 2 || q.Where[0].LbSlot != 0 || q.Where[0].UbSlot != 1 {
		t.Fatalf("slots = %+v", q)
	}
}

func TestCheckBinds(t *testing.T) {
	q := mustParse(t, "SELECT PERCENTILE(x, 0.5) FROM t WHERE x BETWEEN 1 AND 9")
	if err := q.CheckBinds([]Bind{{Num: 0.25}, {Num: 3}, {Num: 3}}); err != nil {
		t.Fatalf("valid binds: %v", err)
	}
	// Each rejection is the parser's own, message included.
	for sql, binds := range map[string][]Bind{
		"SELECT PERCENTILE(x, 1.5) FROM t WHERE x BETWEEN 1 AND 9": {{Num: 1.5}, {Num: 1}, {Num: 9}},
		"SELECT PERCENTILE(x, 0.5) FROM t WHERE x BETWEEN 9 AND 1": {{Num: 0.5}, {Num: 9}, {Num: 1}},
		// Both wrong: the select list comes first, as in the parser.
		"SELECT PERCENTILE(x, -1) FROM t WHERE x BETWEEN 9 AND 1": {{Num: -1}, {Num: 9}, {Num: 1}},
	} {
		_, perr := Parse(sql)
		err := q.CheckBinds(binds)
		if perr == nil || err == nil || err.Error() != perr.Error() {
			t.Errorf("%s: CheckBinds err = %v, Parse err = %v", sql, err, perr)
		}
	}
	if err := q.CheckBinds([]Bind{{Num: 0.5}}); err == nil || !strings.Contains(err.Error(), "3 literals") {
		t.Errorf("short bind vector: err = %v", err)
	}
}

func TestParseTrailingSemicolons(t *testing.T) {
	mustParse(t, "SELECT COUNT(*) FROM t;;")
	if _, err := Parse("SELECT COUNT(*) ; FROM t"); err == nil {
		t.Fatal("a semicolon in mid-statement must not parse")
	}
}
