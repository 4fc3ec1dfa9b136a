package sqlparse

import "strconv"

// Bind is one literal lifted out of a statement: a number (a BETWEEN bound,
// a PERCENTILE point) in Num, or an equality predicate's string in Str. A
// statement's binds sit in statement order in its bind vector; the parser
// records each one's slot (Predicate.LbSlot, Aggregate.PSlot, ...).
type Bind struct {
	Num float64
	Str string
}

// Normalize renders sql in a canonical form: whitespace is collapsed to
// single separators, keywords and aggregate function names are upper-cased,
// numeric literals are re-formatted canonically (so "100.0" and "100"
// normalize alike) and string literals are re-quoted. Identifiers are kept
// verbatim — the engine treats table and column names case-sensitively.
// Input that does not lex is returned verbatim. Returning it unmodified —
// not trimmed — keeps Normalize idempotent: stripping whitespace could turn
// an unlexable input into a lexable one (e.g. a trailing form feed, which
// the lexer rejects but TrimSpace eats), and the second application would
// then produce a different result.
func Normalize(sql string) string {
	var buf [256]byte
	out, _, err := canon(buf[:0], nil, sql, false)
	if err != nil {
		return sql
	}
	return string(out)
}

// Shape reduces sql to its query shape in one lexer pass: it appends the
// canonical form of sql with every lifted literal replaced by a placeholder
// (? for a number, '?' for a string) to key — the plan-cache key — and the
// literals themselves to binds. Which literals are lifted is the scanner's
// rule. Statements that differ only in lifted literals, spacing, keyword
// case or number spelling share a key; the key is the canonical text
// itself, so two different shapes can never collide. Shape fails exactly
// when the lexer does, with the lexer's error. With key and binds backed by
// the caller's stack it allocates nothing.
func Shape(key []byte, binds []Bind, sql string) ([]byte, []Bind, error) {
	return canon(key, binds, sql, true)
}

// canon is the one canonical renderer behind Normalize and Shape: a single
// scanner pass appending to dst, with no token slice in between. With lift
// set, each literal the scanner gave a slot goes to binds and leaves a
// placeholder in dst.
func canon(dst []byte, binds []Bind, src string, lift bool) ([]byte, []Bind, error) {
	s := scanner{src: src}
	// A space separates two tokens unless either binds tightly (punctuation
	// other than = and *); prevTight starts true so nothing leads the output.
	prevTight := true
	semis := 0 // semicolons seen since the last other token
	for {
		if err := s.next(); err != nil {
			return nil, nil, err
		}
		t := &s.tok
		if t.kind == tokEOF {
			return dst, binds, nil
		}
		// Trailing semicolons must not split the key space, so they are
		// dropped; one in mid-statement makes a different (and unparsable)
		// statement, which must not share a valid one's key, so it stays.
		if t.kind == tokSymbol && t.text == ";" {
			semis++
			continue
		}
		for ; semis > 0; semis-- {
			dst = append(dst, ';')
			prevTight = true
		}
		tight := t.kind == tokSymbol && t.text != "=" && t.text != "*"
		if !prevTight && !tight {
			dst = append(dst, ' ')
		}
		prevTight = tight
		switch {
		case t.kind == tokIdent && s.peek() == '(':
			// Aggregate names fold to upper case only in call position —
			// a column that happens to be named "avg" stays verbatim.
			var buf [maxWord]byte
			if up := upperWord(buf[:0], t.text); KnownAggregates[string(up)] {
				dst = append(dst, up...)
			} else {
				dst = append(dst, t.text...)
			}
		case t.kind == tokNumber && lift && t.slot >= 0:
			binds = append(binds, Bind{Num: t.num})
			dst = append(dst, '?')
		case t.kind == tokNumber:
			dst = strconv.AppendFloat(dst, t.num, 'g', -1, 64)
		case t.kind == tokString && lift:
			binds = append(binds, Bind{Str: t.text})
			dst = append(dst, "'?'"...)
		case t.kind == tokString:
			dst = append(dst, '\'')
			for i := 0; i < len(t.text); i++ {
				if t.text[i] == '\'' {
					dst = append(dst, '\'')
				}
				dst = append(dst, t.text[i])
			}
			dst = append(dst, '\'')
		default: // keywords (already upper-cased), identifiers, symbols
			dst = append(dst, t.text...)
		}
	}
}

// peek returns the first byte of the next token without consuming anything,
// 0 at the end of the input.
func (s *scanner) peek() byte {
	for i := s.pos; i < len(s.src); i++ {
		if c := s.src[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}
