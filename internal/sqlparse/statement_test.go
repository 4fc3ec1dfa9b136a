package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseCreateModel(t *testing.T) {
	cases := []struct {
		sql  string
		want CreateModelStmt
	}{
		{
			"CREATE MODEL m ON sales(date; price)",
			CreateModelStmt{Name: "m", Table: "sales", XCols: []string{"date"}, YCol: "price"},
		},
		{
			"create model m2 on sales ( a , b ; y ) sample 5000 seed 7",
			CreateModelStmt{Name: "m2", Table: "sales", XCols: []string{"a", "b"}, YCol: "y",
				Sample: 5000, Seed: 7, HasSeed: true},
		},
		{
			"CREATE MODEL shardy ON t(x; y) SHARDS 16;",
			CreateModelStmt{Name: "shardy", Table: "t", XCols: []string{"x"}, YCol: "y", Shards: 16},
		},
		{
			"CREATE MODEL g ON t(x; y) GROUP BY region",
			CreateModelStmt{Name: "g", Table: "t", XCols: []string{"x"}, YCol: "y", GroupBy: "region"},
		},
		{
			"CREATE MODEL n ON t(x; y) NOMINAL BY channel SAMPLE 100",
			CreateModelStmt{Name: "n", Table: "t", XCols: []string{"x"}, YCol: "y",
				NominalBy: "channel", Sample: 100},
		},
		{
			"CREATE MODEL j ON a(x; y) JOIN b ON k1 = k2",
			CreateModelStmt{Name: "j", Table: "a", XCols: []string{"x"}, YCol: "y",
				Join: &Join{Table: "b", LeftKey: "k1", RightKey: "k2"}},
		},
		{
			"CREATE MODEL js ON a(x; y) JOIN b ON k1 = k2 FRACTION 1/4 SEED -3",
			CreateModelStmt{Name: "js", Table: "a", XCols: []string{"x"}, YCol: "y",
				Join:    &Join{Table: "b", LeftKey: "k1", RightKey: "k2"},
				FracNum: 1, FracDen: 4, Seed: -3, HasSeed: true},
		},
		{
			// Clause order is free.
			"CREATE MODEL o ON t(x; y) SEED 1 SHARDS 2 SAMPLE 10",
			CreateModelStmt{Name: "o", Table: "t", XCols: []string{"x"}, YCol: "y",
				Shards: 2, Sample: 10, Seed: 1, HasSeed: true},
		},
	}
	for _, c := range cases {
		st, err := ParseStatement(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if st.CreateModel == nil {
			t.Fatalf("%q: not parsed as CREATE MODEL: %+v", c.sql, st)
		}
		if !reflect.DeepEqual(*st.CreateModel, c.want) {
			t.Errorf("%q:\n got %+v\nwant %+v", c.sql, *st.CreateModel, c.want)
		}
	}
}

func TestParseCreateModelErrors(t *testing.T) {
	cases := []struct{ sql, wantErr string }{
		{"CREATE", "expected MODEL"},
		{"CREATE MODEL", "expected identifier"},
		{"CREATE MODEL m", "expected ON"},
		{"CREATE MODEL m ON t", `expected "("`},
		{"CREATE MODEL m ON t(x)", "between predicate and aggregate"},
		{"CREATE MODEL m ON t(x; y", `expected ")"`},
		{"CREATE MODEL m ON t(; y)", "expected identifier"},
		{"CREATE MODEL m ON t(x; y) SHARDS 0", "positive integer"},
		{"CREATE MODEL m ON t(x; y) SHARDS 2.5", "positive integer"},
		{"CREATE MODEL m ON t(x; y) SAMPLE -1", "positive integer"},
		{"CREATE MODEL m ON t(x; y) SEED 1.5", "SEED wants an integer"},
		{"CREATE MODEL m ON t(x; y) SHARDS 2 SHARDS 4", "duplicate SHARDS"},
		{"CREATE MODEL m ON t(x; y) GRID 256", "GRID clause was removed"},
		{"CREATE MODEL m ON t(x; y) SAMPLE 100 grid off", "GRID clause was removed"},
		{"CREATE MODEL m ON t(x; y) GROUP BY g GROUP BY h", "duplicate GROUP BY"},
		{"CREATE MODEL m ON t(x; y) JOIN b ON k = k JOIN c ON k = k", "duplicate JOIN"},
		{"CREATE MODEL m ON t(x; y) JOIN b ON k1 = k2 FRACTION 3/2", "FRACTION 3/2 exceeds 1"},
		{"CREATE MODEL m ON t(x; y) JOIN b ON k1 = k2 FRACTION 1", `expected "/"`},
		{"CREATE MODEL m ON t(x; y) trailing", "unexpected trailing input"},
	}
	for _, c := range cases {
		_, err := ParseStatement(c.sql)
		if err == nil {
			t.Fatalf("%q: want error containing %q, got nil", c.sql, c.wantErr)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q: error %q does not contain %q", c.sql, err, c.wantErr)
		}
	}
}

func TestParseDropShowStatements(t *testing.T) {
	st, err := ParseStatement("DROP MODEL m1;")
	if err != nil || st.DropModel == nil || st.DropModel.Name != "m1" {
		t.Fatalf("DROP MODEL: %+v, %v", st, err)
	}
	st, err = ParseStatement("show models")
	if err != nil || !st.ShowModels {
		t.Fatalf("SHOW MODELS: %+v, %v", st, err)
	}
	if _, err := ParseStatement("DROP MODEL"); err == nil {
		t.Fatal("DROP MODEL without a name should fail")
	}
	if _, err := ParseStatement("SHOW MODELS please"); err == nil {
		t.Fatal("trailing input after SHOW MODELS should fail")
	}
	if _, err := ParseStatement("DROP TABLE t"); err == nil {
		t.Fatal("DROP TABLE is not a supported statement")
	}
}

// ParseStatement must keep parsing plain SELECT queries, and soft keywords
// must stay usable as identifiers inside them.
func TestParseStatementSelectPassThrough(t *testing.T) {
	st, err := ParseStatement("SELECT AVG(sample) FROM model WHERE shards BETWEEN 1 AND 2")
	if err != nil {
		t.Fatal(err)
	}
	q := st.Select
	if q == nil || q.Table != "model" || q.Aggregates[0].Column != "sample" || q.Where[0].Column != "shards" {
		t.Fatalf("soft keywords must stay valid identifiers in queries: %+v", q)
	}
	if _, err := ParseStatement("SELEC COUNT(*) FROM t"); err == nil {
		t.Fatal("garbage statement should fail")
	}
}
