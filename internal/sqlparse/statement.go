package sqlparse

import (
	"fmt"
	"math"
	"strings"
)

// Model-definition statements: the declarative front end for creating,
// dropping and listing trained models, mirroring how queries are the
// declarative front end for evaluating them. The grammar is
//
//	CREATE MODEL <name> ON <table> ( x1 [, x2]* ; y )
//	    [JOIN <table2> ON lk = rk [FRACTION num / denom]]
//	    [GROUP BY col] [NOMINAL BY col]
//	    [SHARDS k] [SAMPLE n] [SEED s]
//	CREATE SKETCH <name> ON <table> ( x )
//	    [TYPE HLL | TOPK] [PRECISION p] [K k]
//	DROP MODEL <name>        (DROP SKETCH is accepted as an alias)
//	SHOW MODELS
//
// with the option clauses accepted in any order, each at most once.
//
// CREATE, MODEL and the clause heads are soft keywords: they are matched
// case-insensitively in statement position only, so columns or tables
// named "sample" or "shards" keep working everywhere identifiers are
// allowed, and the SELECT grammar is untouched.

// CreateModelStmt is the parsed CREATE MODEL statement. Zero values of the
// optional fields mean "not specified".
type CreateModelStmt struct {
	Name      string
	Table     string
	XCols     []string
	YCol      string
	Join      *Join  // non-nil for join sources
	FracNum   uint64 // hash-band keep ratio for sampled joins (0/0 = full)
	FracDen   uint64
	GroupBy   string
	NominalBy string
	Shards    int
	Sample    int
	Seed      int64
	HasSeed   bool
}

// CreateSketchStmt is the parsed CREATE SKETCH statement. Zero values of
// the optional fields mean "not specified" (engine defaults apply).
type CreateSketchStmt struct {
	Name      string
	Table     string
	Col       string
	Type      string // TYPE clause verbatim ("HLL", "TOPK"); "" = default
	Precision int    // HLL register precision
	K         int    // TOP-K slot count
}

// DropModelStmt is the parsed DROP MODEL statement; Name addresses a model
// by its spec name or catalog key. DROP SKETCH parses to the same
// statement — sketches live in the same catalog namespace.
type DropModelStmt struct {
	Name string
}

// Statement is one parsed top-level statement: exactly one field is set.
type Statement struct {
	Select       *Query
	CreateModel  *CreateModelStmt
	CreateSketch *CreateSketchStmt
	DropModel    *DropModelStmt
	ShowModels   bool
}

// ParseStatement parses one top-level statement: a SELECT query or one of
// the model-definition statements. Plain Parse remains the SELECT-only
// entry point (it is what the plan cache re-parses).
func ParseStatement(src string) (*Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	switch {
	case p.peekWord("CREATE"):
		if p.peekWordAt(1, "SKETCH") {
			cs, err := p.parseCreateSketch()
			if err != nil {
				return nil, err
			}
			return &Statement{CreateSketch: cs}, nil
		}
		cm, err := p.parseCreateModel()
		if err != nil {
			return nil, err
		}
		return &Statement{CreateModel: cm}, nil
	case p.peekWord("DROP"):
		dm, err := p.parseDropModel()
		if err != nil {
			return nil, err
		}
		return &Statement{DropModel: dm}, nil
	case p.peekWord("SHOW"):
		if err := p.parseShowModels(); err != nil {
			return nil, err
		}
		return &Statement{ShowModels: true}, nil
	default:
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		return &Statement{Select: q}, nil
	}
}

// peekWord reports whether the current token is the given word, matched
// case-insensitively whether the lexer classified it as a keyword or an
// identifier (soft-keyword matching).
func (p *parser) peekWord(w string) bool {
	t := p.cur()
	return (t.kind == tokIdent || t.kind == tokKeyword) && strings.EqualFold(t.text, w)
}

// peekWordAt is peekWord at a lookahead offset from the current token.
func (p *parser) peekWordAt(off int, w string) bool {
	if p.i+off >= len(p.toks) {
		return false
	}
	t := p.toks[p.i+off]
	return (t.kind == tokIdent || t.kind == tokKeyword) && strings.EqualFold(t.text, w)
}

// acceptWord consumes the current token if it is the given soft keyword.
func (p *parser) acceptWord(w string) bool {
	if p.peekWord(w) {
		p.next()
		return true
	}
	return false
}

// expectWord consumes the given soft keyword or fails.
func (p *parser) expectWord(w string) error {
	if !p.acceptWord(w) {
		return p.errf("expected %s, got %q", w, p.cur().text)
	}
	return nil
}

// expectPosInt consumes a positive integer literal (for SHARDS, SAMPLE and
// FRACTION operands, which count things).
func (p *parser) expectPosInt(what string) (int64, error) {
	t := p.next()
	if t.kind != tokNumber || t.num != math.Trunc(t.num) || t.num < 1 || t.num > math.MaxInt64 {
		return 0, p.errfAt(t, "%s wants a positive integer, got %q", what, t.text)
	}
	return int64(t.num), nil
}

// finishStatement consumes an optional trailing semicolon and requires EOF.
func (p *parser) finishStatement() error {
	if p.cur().kind == tokSymbol && p.cur().text == ";" {
		p.next()
	}
	if p.cur().kind != tokEOF {
		return p.errf("unexpected trailing input %q", p.cur().text)
	}
	return nil
}

// parseCreateModel parses CREATE MODEL name ON table(x...; y) [clauses].
func (p *parser) parseCreateModel() (*CreateModelStmt, error) {
	p.next() // CREATE
	if err := p.expectWord("MODEL"); err != nil {
		return nil, err
	}
	cm := &CreateModelStmt{}
	var err error
	if cm.Name, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if cm.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.parseModelColumns(cm); err != nil {
		return nil, err
	}
	if err := p.parseModelClauses(cm); err != nil {
		return nil, err
	}
	if err := p.finishStatement(); err != nil {
		return nil, err
	}
	return cm, nil
}

// parseModelColumns parses the column set ( x1 [, x2]* ; y ).
func (p *parser) parseModelColumns(cm *CreateModelStmt) error {
	if err := p.expectSymbol("("); err != nil {
		return err
	}
	for {
		x, err := p.expectIdent()
		if err != nil {
			return err
		}
		cm.XCols = append(cm.XCols, x)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		break
	}
	// Peek instead of expectSymbol: the clearer error must not re-read the
	// token stream after an EOF token was already consumed.
	if p.cur().kind != tokSymbol || p.cur().text != ";" {
		return p.errf("expected ';' between predicate and aggregate columns, got %q", p.cur().text)
	}
	p.next()
	var err error
	if cm.YCol, err = p.expectIdent(); err != nil {
		return err
	}
	return p.expectSymbol(")")
}

// parseModelClauses parses the optional clauses in any order, rejecting
// duplicates.
func (p *parser) parseModelClauses(cm *CreateModelStmt) error {
	for {
		switch {
		case p.peekWord("JOIN"):
			if cm.Join != nil {
				return p.errf("duplicate JOIN clause")
			}
			p.next()
			if err := p.parseJoinClause(cm); err != nil {
				return err
			}
		case p.peekWord("GROUP"):
			if cm.GroupBy != "" {
				return p.errf("duplicate GROUP BY clause")
			}
			p.next()
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			var err error
			if cm.GroupBy, err = p.expectIdent(); err != nil {
				return err
			}
		case p.peekWord("NOMINAL"):
			if cm.NominalBy != "" {
				return p.errf("duplicate NOMINAL BY clause")
			}
			p.next()
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			var err error
			if cm.NominalBy, err = p.expectIdent(); err != nil {
				return err
			}
		case p.peekWord("SHARDS"):
			if cm.Shards != 0 {
				return p.errf("duplicate SHARDS clause")
			}
			p.next()
			k, err := p.expectPosInt("SHARDS")
			if err != nil {
				return err
			}
			cm.Shards = int(k)
		case p.peekWord("SAMPLE"):
			if cm.Sample != 0 {
				return p.errf("duplicate SAMPLE clause")
			}
			p.next()
			n, err := p.expectPosInt("SAMPLE")
			if err != nil {
				return err
			}
			cm.Sample = int(n)
		case p.peekWord("GRID"):
			return p.errf("the GRID clause was removed: every model now serves from its train-time evaluation grid, which is always built")
		case p.peekWord("SEED"):
			if cm.HasSeed {
				return p.errf("duplicate SEED clause")
			}
			p.next()
			t := p.next()
			if t.kind != tokNumber || t.num != math.Trunc(t.num) {
				return p.errfAt(t, "SEED wants an integer, got %q", t.text)
			}
			cm.Seed = int64(t.num)
			cm.HasSeed = true
		default:
			return nil
		}
	}
}

// parseJoinClause parses table2 ON lk = rk [FRACTION num / denom] after
// the JOIN soft keyword.
func (p *parser) parseJoinClause(cm *CreateModelStmt) error {
	j := &Join{}
	var err error
	if j.Table, err = p.expectIdent(); err != nil {
		return err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return err
	}
	if j.LeftKey, err = p.expectIdent(); err != nil {
		return err
	}
	if err := p.expectSymbol("="); err != nil {
		return err
	}
	if j.RightKey, err = p.expectIdent(); err != nil {
		return err
	}
	cm.Join = j
	if !p.acceptWord("FRACTION") {
		return nil
	}
	num, err := p.expectPosInt("FRACTION")
	if err != nil {
		return err
	}
	if err := p.expectSymbol("/"); err != nil {
		return err
	}
	den, err := p.expectPosInt("FRACTION")
	if err != nil {
		return err
	}
	if uint64(num) > uint64(den) {
		return fmt.Errorf("sqlparse: FRACTION %d/%d exceeds 1", num, den)
	}
	cm.FracNum, cm.FracDen = uint64(num), uint64(den)
	return nil
}

// parseCreateSketch parses CREATE SKETCH name ON table(col) [TYPE t]
// [PRECISION p] [K k], clauses in any order, each at most once.
func (p *parser) parseCreateSketch() (*CreateSketchStmt, error) {
	p.next() // CREATE
	p.next() // SKETCH
	cs := &CreateSketchStmt{}
	var err error
	if cs.Name, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if cs.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if cs.Col, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekWord("TYPE"):
			if cs.Type != "" {
				return nil, p.errf("duplicate TYPE clause")
			}
			p.next()
			if cs.Type, err = p.expectIdent(); err != nil {
				return nil, err
			}
		case p.peekWord("PRECISION"):
			if cs.Precision != 0 {
				return nil, p.errf("duplicate PRECISION clause")
			}
			p.next()
			n, err := p.expectPosInt("PRECISION")
			if err != nil {
				return nil, err
			}
			cs.Precision = int(n)
		case p.peekWord("K"):
			if cs.K != 0 {
				return nil, p.errf("duplicate K clause")
			}
			p.next()
			n, err := p.expectPosInt("K")
			if err != nil {
				return nil, err
			}
			cs.K = int(n)
		default:
			if err := p.finishStatement(); err != nil {
				return nil, err
			}
			return cs, nil
		}
	}
}

// parseDropModel parses DROP MODEL name (or DROP SKETCH — sketches share
// the model namespace, so the drop path is one).
func (p *parser) parseDropModel() (*DropModelStmt, error) {
	p.next() // DROP
	if !p.acceptWord("MODEL") && !p.acceptWord("SKETCH") {
		return nil, p.errf("expected MODEL or SKETCH, got %q", p.cur().text)
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.finishStatement(); err != nil {
		return nil, err
	}
	return &DropModelStmt{Name: name}, nil
}

// parseShowModels parses SHOW MODELS.
func (p *parser) parseShowModels() error {
	p.next() // SHOW
	if err := p.expectWord("MODELS"); err != nil {
		return err
	}
	return p.finishStatement()
}
