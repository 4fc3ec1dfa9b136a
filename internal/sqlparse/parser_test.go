package sqlparse

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseBasicAggregate(t *testing.T) {
	q := mustParse(t, "SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 5;")
	if len(q.Aggregates) != 1 || q.Aggregates[0].Func != "AVG" || q.Aggregates[0].Column != "y" {
		t.Fatalf("aggregates = %+v", q.Aggregates)
	}
	if q.Table != "t" {
		t.Fatalf("table = %q", q.Table)
	}
	if len(q.Where) != 1 || q.Where[0] != (Predicate{Column: "x", Lb: 1, Ub: 5, LbSlot: 0, UbSlot: 1}) {
		t.Fatalf("where = %+v", q.Where)
	}
}

func TestParsePaperExamples(t *testing.T) {
	// The exact queries quoted in §2.2 and §2.3 of the paper.
	q := mustParse(t, `SELECT ss_store_sk, SUM(ss_sales_price)
		FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 2450815 AND 2451179
		GROUP BY ss_store_sk;`)
	if q.GroupBy != "ss_store_sk" {
		t.Fatalf("group by = %q", q.GroupBy)
	}
	if len(q.SelectCols) != 1 || q.SelectCols[0] != "ss_store_sk" {
		t.Fatalf("select cols = %v", q.SelectCols)
	}
	if q.Aggregates[0].Func != "SUM" {
		t.Fatalf("agg = %+v", q.Aggregates[0])
	}

	q2 := mustParse(t, "SELECT VARIANCE(x) FROM T WHERE x BETWEEN 0 AND 10")
	if q2.Aggregates[0].Func != "VARIANCE" || q2.Aggregates[0].Column != "x" {
		t.Fatalf("agg = %+v", q2.Aggregates[0])
	}
}

func TestParsePercentile(t *testing.T) {
	q := mustParse(t, "SELECT PERCENTILE(x, 0.95) FROM T;")
	a := q.Aggregates[0]
	if a.Func != "PERCENTILE" || a.Column != "x" || !a.HasP || a.P != 0.95 {
		t.Fatalf("agg = %+v", a)
	}
	if _, err := Parse("SELECT PERCENTILE(x) FROM T"); err == nil {
		t.Fatal("PERCENTILE without point must fail")
	}
	if _, err := Parse("SELECT PERCENTILE(x, 1.5) FROM T"); err == nil {
		t.Fatal("percentile point outside [0,1] must fail")
	}
	if _, err := Parse("SELECT AVG(x, 0.5) FROM T"); err == nil {
		t.Fatal("AVG with two args must fail")
	}
}

func TestParseCountStar(t *testing.T) {
	q := mustParse(t, "SELECT COUNT(*) FROM t WHERE x BETWEEN 0 AND 1")
	if q.Aggregates[0].Column != "*" {
		t.Fatalf("agg = %+v", q.Aggregates[0])
	}
	if _, err := Parse("SELECT SUM(*) FROM t"); err == nil {
		t.Fatal("SUM(*) must fail")
	}
}

func TestParseJoin(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(ss_net_profit), AVG(ss_net_profit)
		FROM store_sales JOIN store ON ss_store_sk = s_store_sk
		WHERE s_number_of_employees BETWEEN 200 AND 250;`)
	if q.Join == nil || q.Join.Table != "store" ||
		q.Join.LeftKey != "ss_store_sk" || q.Join.RightKey != "s_store_sk" {
		t.Fatalf("join = %+v", q.Join)
	}
	if len(q.Aggregates) != 2 {
		t.Fatalf("aggregates = %+v", q.Aggregates)
	}
	q2 := mustParse(t, "SELECT AVG(y) FROM a INNER JOIN b ON a.k = b.k WHERE x BETWEEN 0 AND 1")
	if q2.Join == nil || q2.Join.LeftKey != "a.k" {
		t.Fatalf("inner join = %+v", q2.Join)
	}
}

func TestParseMultiPredicate(t *testing.T) {
	q := mustParse(t, "SELECT AVG(y) FROM t WHERE x1 BETWEEN 1 AND 2 AND x2 BETWEEN 3 AND 4")
	if len(q.Where) != 2 {
		t.Fatalf("where = %+v", q.Where)
	}
	if q.Where[1] != (Predicate{Column: "x2", Lb: 3, Ub: 4, LbSlot: 2, UbSlot: 3}) {
		t.Fatalf("where[1] = %+v", q.Where[1])
	}
}

func TestParseNumbers(t *testing.T) {
	q := mustParse(t, "SELECT AVG(y) FROM t WHERE x BETWEEN -1.5e2 AND 2.25")
	if q.Where[0].Lb != -150 || q.Where[0].Ub != 2.25 {
		t.Fatalf("where = %+v", q.Where[0])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q := mustParse(t, "select avg(y) from t where x between 1 and 2 group by g")
	if q.Aggregates[0].Func != "AVG" || q.GroupBy != "g" {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT y FROM t", // no aggregate
		"SELECT AVG(y) t", // missing FROM
		"SELECT AVG(y) FROM t WHERE x BETWEEN 5 AND 1", // reversed bounds
		"SELECT AVG(y) FROM t WHERE x > 5",             // unsupported operator
		"SELECT AVG(y) FROM t extra",                   // trailing input
		"SELECT AVG(y FROM t",                          // missing paren
		"SELECT AVG(y) FROM t JOIN",                    // incomplete join
		"SELECT AVG(y) FROM t JOIN s ON a b",           // missing =
		"SELECT z, AVG(y) FROM t GROUP BY g",           // select col not group col
		"SELECT AVG(y) FROM t WHERE x BETWEEN one AND 2",
		"SELECT AVG(y) FROM t GROUP g",
		"SELECT @bad FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorMessagesMentionPosition(t *testing.T) {
	_, err := Parse("SELECT AVG(y) FROM t WHERE x BETWEEN 5 AND")
	if err == nil || !strings.Contains(err.Error(), "sqlparse:") {
		t.Fatalf("err = %v", err)
	}
}

func TestQualifiedIdentifiers(t *testing.T) {
	q := mustParse(t, "SELECT AVG(store_sales.ss_net_profit) FROM store_sales WHERE store.s_number_of_employees BETWEEN 200 AND 300")
	if q.Aggregates[0].Column != "store_sales.ss_net_profit" {
		t.Fatalf("column = %q", q.Aggregates[0].Column)
	}
	if q.Where[0].Column != "store.s_number_of_employees" {
		t.Fatalf("pred column = %q", q.Where[0].Column)
	}
}

func TestNoSemicolonOK(t *testing.T) {
	mustParse(t, "SELECT COUNT(y) FROM t WHERE x BETWEEN 0 AND 1")
}
