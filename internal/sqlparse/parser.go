package sqlparse

import (
	"fmt"
	"math"
	"strings"
)

// Aggregate is one AF(column) item of the select list. For PERCENTILE the
// HIVE syntax PERCENTILE(col, p) sets P (and HasP). COUNT(DISTINCT col)
// sets Distinct, and the heavy-hitter form TOP <k>(col) sets K.
//
// The *Slot fields here and on Predicate and Equality give each literal's
// position in the statement's bind vector (see Shape): a plan is built from
// the slots and shared by every statement of the shape, so whoever executes
// one reads the literals of its own statement through them, never the
// value fields of the query the plan happened to be built from.
type Aggregate struct {
	Func     string // upper-case: COUNT, SUM, AVG, VARIANCE, STDDEV, PERCENTILE, TOP
	Column   string // "*" allowed for COUNT(*)
	P        float64
	PSlot    int // bind slot of P; meaningful only with HasP
	HasP     bool
	Distinct bool // COUNT(DISTINCT col)
	K        int  // TOP <k>(col) rank count
}

// Join describes FROM a JOIN b ON a.k = b.k.
type Join struct {
	Table    string // right table
	LeftKey  string
	RightKey string
}

// Predicate is col BETWEEN Lb AND Ub.
type Predicate struct {
	Column         string
	Lb, Ub         float64
	LbSlot, UbSlot int
}

// Equality is col = 'value', the nominal-categorical selection operator of
// paper §2.3 ("Supporting Categorical Attributes").
type Equality struct {
	Column string
	Value  string
	Slot   int
}

// Query is the parsed AST of a supported analytical query.
type Query struct {
	Aggregates []Aggregate
	SelectCols []string // non-aggregate select items (grouping columns)
	Table      string
	Join       *Join
	Where      []Predicate
	Equals     []Equality // nominal equality predicates
	GroupBy    string
	// Tolerance is the WITHIN <p>% error budget as a fraction (WITHIN 2%
	// stores 0.02); the engine serves from a model only when its predicted
	// relative error fits the budget, else falls through to the exact scan.
	Tolerance    float64
	HasTolerance bool
	// Binds is the length of the statement's bind vector: the literals the
	// *Slot fields address.
	Binds int
}

// KnownAggregates lists the aggregate function names the engine accepts.
var KnownAggregates = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true,
	"VARIANCE": true, "STDDEV": true, "PERCENTILE": true,
}

type parser struct {
	toks []token
	i    int
}

// Parse parses one supported SQL query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseQuery()
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: %s (near position %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return p.errfAt(t, "expected %s, got %q", kw, t.text)
	}
	return nil
}

func (p *parser) errfAt(t token, format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: %s (near position %d)", fmt.Sprintf(format, args...), t.pos)
}

func (p *parser) expectSymbol(s string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != s {
		return p.errfAt(t, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errfAt(t, "expected identifier, got %q", t.text)
	}
	return t.text, nil
}

func (p *parser) expectNumber() (token, error) {
	t := p.next()
	if t.kind != tokNumber {
		return t, p.errfAt(t, "expected number, got %q", t.text)
	}
	return t, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	if err := p.parseSelectList(q); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	var err error
	q.Table, err = p.expectIdent()
	if err != nil {
		return nil, err
	}
	// Optional [INNER] JOIN t2 ON a = b, or comma-join with ON-style WHERE
	// equality not supported (the paper's join queries are explicit joins).
	if p.cur().kind == tokKeyword && (p.cur().text == "JOIN" || p.cur().text == "INNER") {
		if p.cur().text == "INNER" {
			p.next()
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		j := &Join{}
		j.Table, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		j.LeftKey, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		j.RightKey, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
		q.Join = j
	}
	if p.cur().kind == tokKeyword && p.cur().text == "WHERE" {
		p.next()
		for {
			if err := p.parseCondition(q); err != nil {
				return nil, err
			}
			if p.cur().kind == tokKeyword && p.cur().text == "AND" {
				p.next()
				continue
			}
			break
		}
	}
	if p.cur().kind == tokKeyword && p.cur().text == "GROUP" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		q.GroupBy, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	}
	// Optional WITHIN <p>% error-budget clause. WITHIN is a soft keyword —
	// only the number after it makes this the tolerance clause, so columns
	// named "within" keep working elsewhere in the grammar.
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, "WITHIN") &&
		p.toks[p.i+1].kind == tokNumber {
		p.next()
		t, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("%"); err != nil {
			return nil, err
		}
		v := t.num
		if v <= 0 || v > 100 {
			return nil, fmt.Errorf("sqlparse: WITHIN tolerance %v%% outside (0, 100]", v)
		}
		q.Tolerance = v / 100
		q.HasTolerance = true
	}
	// Any run of trailing semicolons ends the statement — the canonical form
	// (canon) drops exactly those, so the parser and the plan-cache key agree
	// on which statements are the same.
	for p.cur().kind == tokSymbol && p.cur().text == ";" {
		p.next()
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	for i := len(p.toks) - 1; i >= 0 && q.Binds == 0; i-- {
		q.Binds = p.toks[i].slot + 1 // slots count up, so the last literal has the highest
	}
	if len(q.Aggregates) == 0 {
		return nil, fmt.Errorf("sqlparse: query has no aggregate function")
	}
	// Non-aggregate select columns must match GROUP BY (standard SQL rule
	// restricted to the single grouping attribute DBEst supports).
	for _, c := range q.SelectCols {
		if c != q.GroupBy {
			return nil, fmt.Errorf("sqlparse: select column %q is not the GROUP BY attribute", c)
		}
	}
	return q, nil
}

func (p *parser) parseSelectList(q *Query) error {
	for {
		t := p.cur()
		if t.kind != tokIdent {
			return p.errf("expected select item, got %q", t.text)
		}
		upper := strings.ToUpper(t.text)
		if upper == "TOP" && p.toks[p.i+1].kind == tokNumber {
			// TOP <k>(col): TOP is a soft keyword — only the number after it
			// makes this the heavy-hitter aggregate, so columns named "top"
			// keep working as select items.
			p.next()
			agg, err := p.parseTopCall()
			if err != nil {
				return err
			}
			q.Aggregates = append(q.Aggregates, agg)
		} else if KnownAggregates[upper] {
			p.next()
			agg, err := p.parseAggregateCall(upper)
			if err != nil {
				return err
			}
			q.Aggregates = append(q.Aggregates, agg)
		} else {
			p.next()
			q.SelectCols = append(q.SelectCols, t.text)
		}
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		return nil
	}
}

func (p *parser) parseAggregateCall(fn string) (Aggregate, error) {
	agg := Aggregate{Func: fn}
	if err := p.expectSymbol("("); err != nil {
		return agg, err
	}
	t := p.next()
	switch {
	case t.kind == tokIdent && fn == "COUNT" && strings.EqualFold(t.text, "DISTINCT") && p.cur().kind == tokIdent:
		// COUNT(DISTINCT col). DISTINCT is soft: a lone COUNT(distinct)
		// still reads "distinct" as a column name.
		agg.Distinct = true
		agg.Column = p.next().text
	case t.kind == tokIdent:
		agg.Column = t.text
	case t.kind == tokSymbol && t.text == "*" && fn == "COUNT":
		agg.Column = "*"
	default:
		return agg, p.errfAt(t, "expected column in %s(...), got %q", fn, t.text)
	}
	if p.cur().kind == tokSymbol && p.cur().text == "," {
		if fn != "PERCENTILE" {
			return agg, p.errf("%s takes a single argument", fn)
		}
		p.next()
		t, err := p.expectNumber()
		if err != nil {
			return agg, err
		}
		if err := checkPoint(t.num); err != nil {
			return agg, err
		}
		agg.P, agg.PSlot, agg.HasP = t.num, t.slot, true
	} else if fn == "PERCENTILE" {
		return agg, p.errf("PERCENTILE requires a point argument: PERCENTILE(col, p)")
	}
	return agg, p.expectSymbol(")")
}

// parseTopCall parses the heavy-hitter aggregate TOP <k>(col) after the
// TOP word was consumed.
func (p *parser) parseTopCall() (Aggregate, error) {
	agg := Aggregate{Func: "TOP"}
	t := p.next()
	if t.kind != tokNumber || t.num != math.Trunc(t.num) || t.num < 1 || t.num > 1<<20 {
		return agg, p.errfAt(t, "TOP wants a positive integer rank count, got %q", t.text)
	}
	agg.K = int(t.num)
	if err := p.expectSymbol("("); err != nil {
		return agg, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return agg, err
	}
	agg.Column = col
	return agg, p.expectSymbol(")")
}

// parseCondition parses one WHERE conjunct: either a BETWEEN range
// predicate or a nominal equality col = 'value'.
func (p *parser) parseCondition(q *Query) error {
	col, err := p.expectIdent()
	if err != nil {
		return err
	}
	if p.cur().kind == tokSymbol && p.cur().text == "=" {
		p.next()
		t := p.next()
		if t.kind != tokString {
			return p.errfAt(t, "expected string literal after %s =", col)
		}
		q.Equals = append(q.Equals, Equality{Column: col, Value: t.text, Slot: t.slot})
		return nil
	}
	pred, err := p.parseBetween(col)
	if err != nil {
		return err
	}
	q.Where = append(q.Where, pred)
	return nil
}

func (p *parser) parseBetween(col string) (Predicate, error) {
	pred := Predicate{Column: col}
	if err := p.expectKeyword("BETWEEN"); err != nil {
		return pred, err
	}
	lb, err := p.expectNumber()
	if err != nil {
		return pred, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return pred, err
	}
	ub, err := p.expectNumber()
	if err != nil {
		return pred, err
	}
	pred.Lb, pred.LbSlot, pred.Ub, pred.UbSlot = lb.num, lb.slot, ub.num, ub.slot
	return pred, checkBounds(pred.Lb, pred.Ub)
}

// checkBounds and checkPoint are the grammar's value-dependent checks. The
// parser applies them to the literals it reads; CheckBinds applies them to a
// bind vector, so a statement served from a plan cached for another one's
// literals is rejected exactly as if it had been parsed.
func checkBounds(lb, ub float64) error {
	if ub < lb {
		return fmt.Errorf("sqlparse: BETWEEN bounds reversed (%v > %v)", lb, ub)
	}
	return nil
}

func checkPoint(p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("sqlparse: percentile point %v outside [0, 1]", p)
	}
	return nil
}

// CheckBinds validates one bind vector against the query's shape: the same
// value-dependent rejections Parse makes, in the same (statement) order,
// with the same messages.
func (q *Query) CheckBinds(b []Bind) error {
	if len(b) != q.Binds {
		return fmt.Errorf("sqlparse: query shape takes %d literals, bind vector has %d", q.Binds, len(b))
	}
	for _, a := range q.Aggregates {
		if a.HasP {
			if err := checkPoint(b[a.PSlot].Num); err != nil {
				return err
			}
		}
	}
	for _, p := range q.Where {
		if err := checkBounds(b[p.LbSlot].Num, b[p.UbSlot].Num); err != nil {
			return err
		}
	}
	return nil
}
