// Package sqlparse implements the SQL front end for the query class DBEst
// supports (§2.2): SELECT lists of aggregate functions (plus grouping
// columns), FROM a table or a two-table equi-join, WHERE conjunctions of
// BETWEEN range predicates, GROUP BY, and the HIVE-style
// PERCENTILE(x, p) aggregate — plus the model-definition statements
// CREATE MODEL, DROP MODEL and SHOW MODELS (statement.go), so training is
// as declarative as querying. It is a hand-written lexer and
// recursive-descent parser over that grammar.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokKeyword
	tokSymbol // ( ) , = ; . * / %
	tokString // 'single-quoted literal'
)

type token struct {
	kind tokenKind
	text string  // upper-cased for keywords; verbatim for idents
	num  float64 // valid for tokNumber
	pos  int
	// slot is the literal's position in the statement's bind vector, -1 for
	// every token that is not a lifted literal (see scanner).
	slot int
}

var keywords = [...]string{
	"SELECT", "FROM", "WHERE", "AND", "BETWEEN", "GROUP", "BY", "JOIN",
	"ON", "AS", "INNER",
}

// maxWord is the byte length of the longest word any of the package's word
// tables holds (PERCENTILE); upperWord folds into a buffer of that size.
const maxWord = 10

// scanner is the package's one lexer pass: lex collects its tokens for the
// parser, and canon (normalize.go) renders them straight into a plan-cache
// key, so the two can never disagree on where a token ends, what is a
// keyword, or which literals a query shape lifts out. It allocates nothing
// per token: text is a substring of src (a string literal with a doubled
// quote is the one exception).
//
// Lifting: every string literal and every number is a bind — numbered in
// statement order through slot — except a number right after the word TOP or
// WITHIN, because the planner branches on those two (TOP's k against the
// sketch's capacity, WITHIN's tolerance into router state), so they belong
// to the shape.
type scanner struct {
	src    string
	pos    int
	tok    token // the current token, set by next
	lifted int   // literals lifted so far: the next one's slot
	soft   bool  // the current token is the word TOP or WITHIN
}

// identByte marks the ASCII bytes an identifier may continue with.
var identByte = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.'
	}
	return t
}()

// next advances to the next token, leaving it in s.tok: tokEOF (at
// len(src)) once the input is exhausted.
func (s *scanner) next() error {
	src, pos := s.src, s.pos
	for pos < len(src) && (src[pos] == ' ' || src[pos] == '\t' || src[pos] == '\n' || src[pos] == '\r') {
		pos++
	}
	s.pos = pos
	afterSoft := s.soft
	s.soft = false
	s.tok = token{pos: s.pos, slot: -1}
	if s.pos >= len(s.src) {
		return nil
	}
	switch c := s.src[s.pos]; {
	case c == '(' || c == ')' || c == ',' || c == '=' || c == ';' || c == '*' || c == '/' || c == '%':
		s.tok.kind, s.tok.text = tokSymbol, s.src[s.pos:s.pos+1]
		s.pos++
		return nil
	case c == '\'':
		if err := s.scanString(); err != nil {
			return err
		}
	case c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9'):
		if err := s.scanNumber(); err != nil {
			return err
		}
		if afterSoft {
			return nil
		}
	default:
		if r, _ := utf8.DecodeRuneInString(src[pos:]); !isIdentStart(r) {
			return fmt.Errorf("sqlparse: unexpected character %q at position %d", r, pos)
		}
		s.scanWord()
		return nil
	}
	s.tok.slot = s.lifted
	s.lifted++
	return nil
}

func lex(src string) ([]token, error) {
	s := scanner{src: src}
	toks := make([]token, 0, len(src)/6+2) // a token and its spacing average some seven bytes
	for {
		if err := s.next(); err != nil {
			return nil, err
		}
		toks = append(toks, s.tok)
		if s.tok.kind == tokEOF {
			return toks, nil
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

func (s *scanner) scanNumber() error {
	src, start, pos := s.src, s.pos, s.pos
	if src[pos] == '-' || src[pos] == '+' {
		pos++
	}
	for pos < len(src) {
		c := src[pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' {
			pos++
			continue
		}
		if (c == '-' || c == '+') && pos > start && (src[pos-1] == 'e' || src[pos-1] == 'E') {
			pos++
			continue
		}
		break
	}
	s.pos = pos
	text := src[start:pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return fmt.Errorf("sqlparse: bad number %q at position %d", text, start)
	}
	s.tok.kind, s.tok.text, s.tok.num = tokNumber, text, v
	return nil
}

// scanString scans a single-quoted SQL string literal; a doubled quote
// inside it stands for one quote.
func (s *scanner) scanString() error {
	start := s.pos
	s.pos++ // opening quote
	escaped := false
	for s.pos < len(s.src) {
		if s.src[s.pos] != '\'' {
			s.pos++
			continue
		}
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == '\'' {
			escaped = true
			s.pos += 2
			continue
		}
		text := s.src[start+1 : s.pos]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		s.pos++
		s.tok.kind, s.tok.text = tokString, text
		return nil
	}
	return fmt.Errorf("sqlparse: unterminated string literal at position %d", start)
}

func (s *scanner) scanWord() {
	src, start, pos := s.src, s.pos, s.pos
	ascii := true
	for pos < len(src) {
		if c := src[pos]; c < utf8.RuneSelf {
			if !identByte[c] {
				break
			}
			pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[pos:])
		if !isIdentPart(r) {
			break
		}
		ascii = false
		pos += size
	}
	s.pos = pos
	s.tok.kind, s.tok.text = tokIdent, src[start:pos]
	if ascii && pos-start > len("BETWEEN") {
		return // longer than any keyword, TOP or WITHIN
	}
	var buf [maxWord]byte
	up := upperWord(buf[:0], s.tok.text)
	for i := range keywords {
		if string(up) == keywords[i] {
			s.tok.kind, s.tok.text = tokKeyword, keywords[i]
			return
		}
	}
	s.soft = string(up) == "TOP" || string(up) == "WITHIN"
}

// upperWord appends w upper-cased to buf for a lookup in one of the
// package's word tables, or returns nil when w is ASCII and too long to be
// in any. ASCII folds byte by byte without allocating; a word with anything
// else in it goes through strings.ToUpper, because the lexer has always
// classified words by unicode's upper-casing and that maps a few non-ASCII
// letters (ſ, ı) onto table words.
func upperWord(buf []byte, w string) []byte {
	for i := 0; i < len(w); i++ {
		c := w[i]
		if c >= utf8.RuneSelf {
			return append(buf[:0], strings.ToUpper(w)...)
		}
		if i < maxWord {
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf = append(buf, c)
		}
	}
	if len(w) > maxWord {
		return nil
	}
	return buf
}
