package sqlparse

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeeds is the shared seed corpus: every supported query shape, plus
// inputs that historically exercise lexer/parser edges (escaped quotes,
// exponent numbers, unterminated literals, unicode identifiers, trailing
// junk). Checked-in regression inputs live under testdata/fuzz/.
var fuzzSeeds = []string{
	"SELECT COUNT(*) FROM t",
	"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2",
	"SELECT COUNT(*), SUM(y), AVG(y) FROM t WHERE x BETWEEN -5 AND 1e3",
	"SELECT g, AVG(y) FROM t WHERE x BETWEEN 0 AND 1 GROUP BY g",
	"SELECT AVG(y) FROM a JOIN b ON k1 = k2 WHERE x BETWEEN 1 AND 2",
	"SELECT AVG(y) FROM a INNER JOIN b ON k1 = k2",
	"SELECT PERCENTILE(x, 0.5) FROM t",
	"SELECT PERCENTILE(x, 0.5) FROM t WHERE x BETWEEN 10 AND 20",
	"SELECT AVG(y) FROM t WHERE c = 'web' AND x BETWEEN 1 AND 2",
	"SELECT AVG(y) FROM t WHERE c = 'O''Brien'",
	"SELECT VARIANCE(y), STDDEV(y) FROM t WHERE x BETWEEN 1.5e-3 AND 2.5E+7;",
	"select avg ( y ) from t where x between 100.0 and 200",
	"SELECT AVG(ß) FROM tabelle WHERE größe BETWEEN 1 AND 2",
	"SELECT",
	"SELECT AVG(y FROM t",
	"SELECT AVG(y) FROM t WHERE x BETWEEN 2 AND 1",
	"SELECT AVG(y) FROM t WHERE c = 'unterminated",
	"SELECT AVG(y) FROM t trailing junk",
	"'';''",
	"--",
	"SELECT COUNT(*) FROM t WHERE x BETWEEN .5 AND 5.",
	// Model-definition statements (ParseStatement grammar): every clause,
	// soft keywords as identifiers, and malformed variants.
	"CREATE MODEL m ON sales(date; price)",
	"create model m2 on t ( a , b ; y ) sample 5000 seed -7",
	"CREATE MODEL s ON t(x; y) SHARDS 16;",
	"CREATE MODEL g ON t(x; y) GROUP BY region NOMINAL BY channel",
	"CREATE MODEL j ON a(x; y) JOIN b ON k1 = k2 FRACTION 1/4",
	"CREATE MODEL m ON t(x; y) SHARDS 2 SHARDS 4",
	"CREATE MODEL m ON t(x)",
	"CREATE MODEL m ON t(x; y) SEED 1.5",
	"DROP MODEL m1;",
	"SHOW MODELS",
	"SELECT AVG(sample) FROM model WHERE shards BETWEEN 1 AND 2",
	// Sketch estimators: COUNT(DISTINCT x), TOP k(x) and the CREATE SKETCH
	// statement grammar, plus soft-keyword and malformed variants.
	"SELECT COUNT(DISTINCT x) FROM t",
	"select count ( distinct x ) from t where x between 1 and 2",
	"SELECT COUNT(distinct) FROM t",
	"SELECT TOP 10(x) FROM t",
	"select top 3 ( city ) from t;",
	"SELECT TOP 0(x) FROM t",
	"SELECT top FROM t GROUP BY top",
	"SELECT COUNT(*), COUNT(DISTINCT x), TOP 5(x) FROM t",
	"CREATE SKETCH d ON sales(customer)",
	"create sketch hot on t ( city ) type topk k 20",
	"CREATE SKETCH d2 ON t(x) TYPE HLL PRECISION 12;",
	"CREATE SKETCH d3 ON t(x) TYPE HLL TYPE TOPK",
	"CREATE SKETCH d4 ON t(x) PRECISION 0",
	"CREATE SKETCH nope ON t(x; y)",
	"DROP SKETCH d",
	// WITHIN error-budget clause: soft keyword, percent symbol, spacing and
	// malformed variants (missing %, out-of-range, clause out of position).
	"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2 WITHIN 2%",
	"select count(*) from t within 0.5 % ;",
	"SELECT g, AVG(y) FROM t WHERE x BETWEEN 0 AND 1 GROUP BY g WITHIN 10%",
	"SELECT AVG(y) FROM t WITHIN 2",
	"SELECT AVG(y) FROM t WITHIN 0%",
	"SELECT AVG(y) FROM t WITHIN 200%",
	"SELECT AVG(within) FROM t GROUP BY within",
	"SELECT AVG(y) FROM t WITHIN 2% WHERE x BETWEEN 1 AND 2",
	// Query shapes (appended, so the seed#N names above keep their inputs):
	// literals in every liftable position and interleaved, the two kept in
	// the key, number spellings, and semicolons trailing and misplaced.
	"SELECT PERCENTILE(x, 0.25), AVG(y) FROM t WHERE x BETWEEN 1 AND 2 AND c = 'a' AND z BETWEEN -3 AND +4e0",
	"SELECT TOP 3(c) FROM t WHERE c = 'top' AND x BETWEEN 1 AND 2 WITHIN 5%",
	"SELECT AVG(y) FROM t WHERE x BETWEEN 100 AND 1e2;;",
	"SELECT AVG(y) ; FROM t WHERE x BETWEEN 1 AND 2",
	"SELECT AVG(y) FROM t WHERE x BETWEEN 1 AND 2 AND c = ''",
	"select top 2 5 within 3 4 'x' ? 6",
}

// FuzzParse: the lexer+parser must never panic, and a query that parses
// must keep parsing after Normalize rewrites it (the round-trip the plan
// cache depends on: Normalize output is re-parsed on a cache miss).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			return
		}
		if q == nil {
			t.Fatal("Parse returned nil query with nil error")
		}
		n := Normalize(sql)
		q2, err := Parse(n)
		if err != nil {
			t.Fatalf("normalized form stopped parsing:\n  input: %q\n  normalized: %q\n  err: %v", sql, n, err)
		}
		// Normalization must not change what the query means: same table,
		// same aggregate count, same predicate count.
		if q2.Table != q.Table || len(q2.Aggregates) != len(q.Aggregates) ||
			len(q2.Where) != len(q.Where) || len(q2.Equals) != len(q.Equals) {
			t.Fatalf("normalization changed query structure:\n  input: %q -> %+v\n  normalized: %q -> %+v", sql, q, n, q2)
		}
	})
}

// FuzzParseStatement: the statement grammar (CREATE MODEL / DROP MODEL /
// SHOW MODELS / SELECT) must never panic, must set exactly one statement
// field, and must agree with Parse on the SELECT subset — ParseStatement
// is what the CLI and server front ends feed raw user input to.
func FuzzParseStatement(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := ParseStatement(sql)
		if err != nil {
			return
		}
		n := 0
		if st.Select != nil {
			n++
		}
		if st.CreateModel != nil {
			n++
		}
		if st.CreateSketch != nil {
			n++
		}
		if st.DropModel != nil {
			n++
		}
		if st.ShowModels {
			n++
		}
		if n != 1 {
			t.Fatalf("statement %q set %d fields, want exactly 1: %+v", sql, n, st)
		}
		switch {
		case st.Select != nil:
			// The SELECT subset must match the dedicated query parser.
			if _, err := Parse(sql); err != nil {
				t.Fatalf("ParseStatement accepted a SELECT that Parse rejects: %q: %v", sql, err)
			}
		case st.CreateModel != nil:
			cm := st.CreateModel
			if cm.Name == "" || cm.Table == "" || len(cm.XCols) == 0 || cm.YCol == "" {
				t.Fatalf("CREATE MODEL parsed with missing parts: %q -> %+v", sql, cm)
			}
			if (cm.FracNum != 0 || cm.FracDen != 0) && (cm.Join == nil || cm.FracNum == 0 || cm.FracDen < cm.FracNum) {
				t.Fatalf("CREATE MODEL parsed an invalid fraction: %q -> %+v", sql, cm)
			}
		case st.CreateSketch != nil:
			cs := st.CreateSketch
			if cs.Name == "" || cs.Table == "" || cs.Col == "" {
				t.Fatalf("CREATE SKETCH parsed with missing parts: %q -> %+v", sql, cs)
			}
			if cs.Precision < 0 || cs.K < 0 {
				t.Fatalf("CREATE SKETCH parsed negative parameters: %q -> %+v", sql, cs)
			}
		case st.DropModel != nil:
			if st.DropModel.Name == "" {
				t.Fatalf("DROP MODEL parsed without a name: %q", sql)
			}
		}
	})
}

// FuzzNormalize: Normalize must never panic and must be idempotent — it is
// the plan-cache key function, and a drifting key would split one query
// shape across cache entries.
func FuzzNormalize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		n := Normalize(sql)
		if n2 := Normalize(n); n2 != n {
			t.Fatalf("Normalize is not idempotent:\n  input: %q\n  once: %q\n  twice: %q", sql, n, n2)
		}
		// A lexable input normalizes with no surrounding whitespace;
		// unlexable input passes through verbatim.
		if n != sql && strings.TrimSpace(n) != n {
			t.Fatalf("Normalize left surrounding whitespace: %q -> %q", sql, n)
		}
	})
}

// renderShape spells out the statement a shape key and a bind vector stand
// for: each placeholder replaced, in order, by its literal.
func renderShape(key []byte, binds []Bind) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		switch {
		case key[i] == '?':
			b.WriteString(strconv.FormatFloat(binds[0].Num, 'g', -1, 64))
			binds = binds[1:]
		case key[i] == '\'': // a string placeholder: every string is lifted
			b.WriteString("'" + strings.ReplaceAll(binds[0].Str, "'", "''") + "'")
			binds = binds[1:]
			i += len("'?'") - 1
		default:
			b.WriteByte(key[i])
		}
	}
	return b.String()
}

// FuzzShape: Shape (the plan-cache key function) never panics; it fails
// exactly when the lexer does, with the lexer's error; the key does not
// depend on the lifted literals and re-shaping the statement it stands for
// reproduces it; and for a statement that parses, the key and the binds
// together lose nothing — parsing the statement they spell out gives the
// same Query, whose slots address exactly the binds that Shape lifted.
func FuzzShape(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		key, binds, err := Shape(nil, nil, sql)
		if _, lerr := lex(sql); (err == nil) != (lerr == nil) || (err != nil && err.Error() != lerr.Error()) {
			t.Fatalf("Shape(%q) err = %v, lex err = %v", sql, err, lerr)
		}
		if err != nil {
			return
		}
		spelled := renderShape(key, binds)
		key2, binds2, err := Shape(nil, nil, spelled)
		if err != nil || string(key2) != string(key) || !reflect.DeepEqual(binds2, binds) {
			t.Fatalf("re-shaping is not stable:\n  input: %q\n  key: %q binds: %v\n  spelled: %q\n  key: %q binds: %v err: %v",
				sql, key, binds, spelled, key2, binds2, err)
		}
		var others []Bind // other literals, of the kinds the key's placeholders name
		for i := range key {
			if key[i] != '?' {
				continue
			}
			if i > 0 && key[i-1] == '\'' {
				others = append(others, Bind{Str: "it's #" + strconv.Itoa(i)})
			} else {
				others = append(others, Bind{Num: -1.5 * float64(i)})
			}
		}
		key3, binds3, err := Shape(nil, nil, renderShape(key, others))
		if err != nil || string(key3) != string(key) || !reflect.DeepEqual(binds3, others) {
			t.Fatalf("the key depends on the literals:\n  input: %q key: %q\n  with %v: key %q binds %v err %v",
				sql, key, others, key3, binds3, err)
		}

		q, err := Parse(sql)
		if err != nil {
			return
		}
		q2, err := Parse(spelled)
		if err != nil || !reflect.DeepEqual(q2, q) {
			t.Fatalf("shape + binds lost something:\n  input: %q -> %+v\n  spelled: %q -> %+v, %v", sql, q, spelled, q2, err)
		}
		if err := q.CheckBinds(binds); err != nil {
			t.Fatalf("%q parses but its own binds fail CheckBinds: %v", sql, err)
		}
		want := make([]Bind, q.Binds)
		for _, a := range q.Aggregates {
			if a.HasP {
				want[a.PSlot] = Bind{Num: a.P}
			}
		}
		for _, p := range q.Where {
			want[p.LbSlot], want[p.UbSlot] = Bind{Num: p.Lb}, Bind{Num: p.Ub}
		}
		for _, e := range q.Equals {
			want[e.Slot] = Bind{Str: e.Value}
		}
		if !reflect.DeepEqual(want, append([]Bind{}, binds...)) {
			t.Fatalf("%q: slots address %v, Shape lifted %v", sql, want, binds)
		}
	})
}
