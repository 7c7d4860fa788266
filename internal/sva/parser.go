package sva

import (
	"fmt"

	"fveval/internal/sv"
)

// ParseAssertion parses a complete concurrent assertion statement:
//
//	[label:] assert property (@(posedge clk) [disable iff (e)] prop);
func ParseAssertion(src string) (*Assertion, error) {
	toks, err := sv.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	a, err := p.parseAssertion()
	if err != nil {
		return nil, err
	}
	if !p.at(sv.EOF, "") {
		return nil, p.errf("trailing input after assertion")
	}
	return a, nil
}

// ParseExprTokens parses an expression from a token stream starting at
// index i; it returns the expression and the index of the first
// unconsumed token. The RTL parser uses this to share the expression
// grammar.
func ParseExprTokens(toks []sv.Token, i int) (Expr, int, error) {
	p := &parser{toks: toks, i: i}
	e, err := p.parseExpr()
	if err != nil {
		return nil, i, err
	}
	return e, p.i, nil
}

// ParseLValueTokens parses an assignment target (identifier with
// optional bit/part selects) from a token stream. Restricting the
// grammar here resolves the classic `x <= y` ambiguity between
// nonblocking assignment and less-equal comparison in statement
// context.
func ParseLValueTokens(toks []sv.Token, i int) (Expr, int, error) {
	p := &parser{toks: toks, i: i}
	id, err := p.expect(sv.Ident, "")
	if err != nil {
		return nil, i, err
	}
	var e Expr = &Ident{Name: id.Text}
	for p.at(sv.Punct, "[") {
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, i, err
		}
		if p.accept(sv.Punct, ":") {
			lo, err := p.parseExpr()
			if err != nil {
				return nil, i, err
			}
			if _, err := p.expect(sv.Punct, "]"); err != nil {
				return nil, i, err
			}
			e = &Select{X: e, Hi: idx, Lo: lo}
			continue
		}
		if _, err := p.expect(sv.Punct, "]"); err != nil {
			return nil, i, err
		}
		e = &Index{X: e, Idx: idx}
	}
	return e, p.i, nil
}

type parser struct {
	toks []sv.Token
	i    int
}

func (p *parser) peek() sv.Token { return p.toks[p.i] }

func (p *parser) next() sv.Token {
	t := p.toks[p.i]
	if t.Kind != sv.EOF {
		p.i++
	}
	return t
}

func (p *parser) at(k sv.Kind, text string) bool {
	t := p.peek()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *parser) accept(k sv.Kind, text string) bool {
	if p.at(k, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k sv.Kind, text string) (sv.Token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	return sv.Token{}, p.errf("expected %q, found %v", text, p.peek())
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%v: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseAssertion() (*Assertion, error) {
	a := &Assertion{}
	// optional label
	if p.at(sv.Ident, "") && p.toks[p.i+1].Kind == sv.Punct && p.toks[p.i+1].Text == ":" {
		a.Label = p.next().Text
		p.next() // :
	}
	switch {
	case p.accept(sv.Keyword, "assert"):
		a.Kind = "assert"
	case p.accept(sv.Keyword, "assume"):
		a.Kind = "assume"
	case p.accept(sv.Keyword, "cover"):
		a.Kind = "cover"
	default:
		return nil, p.errf("expected assert, assume, or cover")
	}
	if _, err := p.expect(sv.Keyword, "property"); err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, "("); err != nil {
		return nil, err
	}
	// clocking event
	if _, err := p.expect(sv.Punct, "@"); err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, "("); err != nil {
		return nil, err
	}
	switch {
	case p.accept(sv.Keyword, "posedge"):
		a.ClockEdge = "posedge"
	case p.accept(sv.Keyword, "negedge"):
		a.ClockEdge = "negedge"
	default:
		return nil, p.errf("expected posedge or negedge")
	}
	clk, err := p.expect(sv.Ident, "")
	if err != nil {
		return nil, err
	}
	a.ClockName = clk.Text
	if _, err := p.expect(sv.Punct, ")"); err != nil {
		return nil, err
	}
	// optional disable iff
	if p.accept(sv.Keyword, "disable") {
		if _, err := p.expect(sv.Keyword, "iff"); err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
		a.DisableIff = e
	}
	body, err := p.parseProperty()
	if err != nil {
		return nil, err
	}
	a.Body = body
	if _, err := p.expect(sv.Punct, ")"); err != nil {
		return nil, err
	}
	// optional trailing semicolon
	p.accept(sv.Punct, ";")
	return a, nil
}

// ---- property grammar -------------------------------------------------
//
// Precedence (weakest binds first):
//
//	implies/iff < |->,|=> < until family < or < and < prefix ops < sequence

func (p *parser) parseProperty() (Property, error) {
	return p.parsePropImplies()
}

func (p *parser) parsePropImplies() (Property, error) {
	l, err := p.parsePropImpl()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(sv.Keyword, "implies"):
			op = "implies"
		case p.accept(sv.Keyword, "iff"):
			op = "iff"
		default:
			return l, nil
		}
		r, err := p.parsePropImpl()
		if err != nil {
			return nil, err
		}
		l = &PropBinary{Op: op, L: l, R: r}
	}
}

func (p *parser) parsePropImpl() (Property, error) {
	l, err := p.parsePropUntil()
	if err != nil {
		return nil, err
	}
	overlap := false
	switch {
	case p.accept(sv.Punct, "|->"):
		overlap = true
	case p.accept(sv.Punct, "|=>"):
	default:
		return l, nil
	}
	seq, err := propToSequence(l)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	r, err := p.parsePropImpl() // right associative
	if err != nil {
		return nil, err
	}
	return &PropImpl{S: seq, Overlap: overlap, P: r}, nil
}

// propToSequence converts a property parsed on the left of an
// implication back into the sequence it must syntactically be.
func propToSequence(prop Property) (Sequence, error) {
	ps, ok := prop.(*PropSeq)
	if !ok || ps.Explicit {
		return nil, fmt.Errorf("left-hand side of |->/|=> must be a sequence, found property %s", prop.String())
	}
	return ps.S, nil
}

func (p *parser) parsePropUntil() (Property, error) {
	l, err := p.parsePropOr()
	if err != nil {
		return nil, err
	}
	var strong, with bool
	switch {
	case p.accept(sv.Keyword, "until"):
	case p.accept(sv.Keyword, "s_until"):
		strong = true
	case p.accept(sv.Keyword, "until_with"):
		with = true
	case p.accept(sv.Keyword, "s_until_with"):
		strong, with = true, true
	default:
		return l, nil
	}
	r, err := p.parsePropUntil() // right associative
	if err != nil {
		return nil, err
	}
	return &PropUntil{L: l, R: r, Strong: strong, With: with}, nil
}

func (p *parser) parsePropOr() (Property, error) {
	l, err := p.parsePropAnd()
	if err != nil {
		return nil, err
	}
	for p.at(sv.Keyword, "or") {
		p.next()
		r, err := p.parsePropAnd()
		if err != nil {
			return nil, err
		}
		// If both sides are plain sequences, this is a sequence "or".
		if ls, ok := l.(*PropSeq); ok && !ls.Explicit {
			if rs, ok := r.(*PropSeq); ok && !rs.Explicit {
				l = &PropSeq{S: &SeqBinary{Op: "or", L: ls.S, R: rs.S}}
				continue
			}
		}
		l = &PropBinary{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePropAnd() (Property, error) {
	l, err := p.parsePropUnary()
	if err != nil {
		return nil, err
	}
	for p.at(sv.Keyword, "and") {
		p.next()
		r, err := p.parsePropUnary()
		if err != nil {
			return nil, err
		}
		if ls, ok := l.(*PropSeq); ok && !ls.Explicit {
			if rs, ok := r.(*PropSeq); ok && !rs.Explicit {
				l = &PropSeq{S: &SeqBinary{Op: "and", L: ls.S, R: rs.S}}
				continue
			}
		}
		l = &PropBinary{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePropUnary() (Property, error) {
	switch {
	case p.accept(sv.Keyword, "not"):
		inner, err := p.parsePropUnary()
		if err != nil {
			return nil, err
		}
		return &PropNot{P: inner}, nil
	case p.accept(sv.Keyword, "always"):
		inner, err := p.parsePropUnary()
		if err != nil {
			return nil, err
		}
		return &PropAlways{P: inner}, nil
	case p.accept(sv.Keyword, "s_always"):
		inner, err := p.parsePropUnary()
		if err != nil {
			return nil, err
		}
		return &PropAlways{P: inner, Strong: true}, nil
	case p.accept(sv.Keyword, "s_eventually"):
		inner, err := p.parsePropUnary()
		if err != nil {
			return nil, err
		}
		return &PropEventually{P: inner, Strong: true}, nil
	case p.accept(sv.Keyword, "nexttime"):
		inner, err := p.parsePropUnary()
		if err != nil {
			return nil, err
		}
		return &PropNexttime{P: inner}, nil
	case p.accept(sv.Keyword, "s_nexttime"):
		inner, err := p.parsePropUnary()
		if err != nil {
			return nil, err
		}
		return &PropNexttime{P: inner, Strong: true}, nil
	case p.at(sv.Keyword, "strong") || p.at(sv.Keyword, "weak"):
		strong := p.next().Text == "strong"
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		s, err := p.parseSequence()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
		return &PropSeq{S: s, Strong: strong, Explicit: true}, nil
	case p.at(sv.Keyword, "if"):
		p.next()
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
		then, err := p.parsePropUnary()
		if err != nil {
			return nil, err
		}
		var els Property
		if p.accept(sv.Keyword, "else") {
			els, err = p.parsePropUnary()
			if err != nil {
				return nil, err
			}
		}
		return &PropIfElse{C: c, Then: then, Else: els}, nil
	}
	// Otherwise the operand is a sequence (which covers parenthesized
	// properties through the backtracking logic in seqPrimary).
	s, err := p.parseSequence()
	if err != nil {
		return nil, err
	}
	// A parenthesized property that isn't a sequence surfaces here as a
	// special marker from seqPrimary.
	if w, ok := s.(*seqWrappedProp); ok {
		return w.p, nil
	}
	return &PropSeq{S: s}, nil
}

// seqWrappedProp lets "(property)" flow through the sequence grammar
// when it is not a valid sequence. It never escapes the parser.
type seqWrappedProp struct{ p Property }

func (*seqWrappedProp) seqNode()         {}
func (w *seqWrappedProp) String() string { return "(" + w.p.String() + ")" }

// ---- sequence grammar ---------------------------------------------------

func (p *parser) parseSequence() (Sequence, error) {
	return p.parseSeqOr()
}

func (p *parser) parseSeqOr() (Sequence, error) {
	l, err := p.parseSeqAnd()
	if err != nil {
		return nil, err
	}
	for p.at(sv.Keyword, "or") {
		// In property context "or" is handled above; in pure sequence
		// context (inside parens or implication antecedent) it means
		// sequence disjunction.
		p.next()
		r, err := p.parseSeqAnd()
		if err != nil {
			return nil, err
		}
		l = combineSeqOrProp("or", l, r)
	}
	return l, nil
}

func (p *parser) parseSeqAnd() (Sequence, error) {
	l, err := p.parseSeqIntersect()
	if err != nil {
		return nil, err
	}
	for p.at(sv.Keyword, "and") {
		p.next()
		r, err := p.parseSeqIntersect()
		if err != nil {
			return nil, err
		}
		l = combineSeqOrProp("and", l, r)
	}
	return l, nil
}

// combineSeqOrProp joins two operands of a sequence-level and/or. When
// either side is really a parenthesized property, the combination is a
// property binary instead, carried through the sequence grammar in a
// wrapper until parsePropUnary unwraps it.
func combineSeqOrProp(op string, l, r Sequence) Sequence {
	_, lw := l.(*seqWrappedProp)
	_, rw := r.(*seqWrappedProp)
	if !lw && !rw {
		return &SeqBinary{Op: op, L: l, R: r}
	}
	return &seqWrappedProp{p: &PropBinary{Op: op, L: seqAsProp(l), R: seqAsProp(r)}}
}

func seqAsProp(s Sequence) Property {
	if w, ok := s.(*seqWrappedProp); ok {
		return w.p
	}
	return &PropSeq{S: s}
}

func (p *parser) parseSeqIntersect() (Sequence, error) {
	l, err := p.parseSeqThroughout()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(sv.Keyword, "intersect"):
			op = "intersect"
		case p.accept(sv.Keyword, "within"):
			op = "within"
		default:
			return l, nil
		}
		r, err := p.parseSeqThroughout()
		if err != nil {
			return nil, err
		}
		l = &SeqBinary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseSeqThroughout() (Sequence, error) {
	l, err := p.parseSeqDelay()
	if err != nil {
		return nil, err
	}
	if p.accept(sv.Keyword, "throughout") {
		se, ok := l.(*SeqExpr)
		if !ok {
			return nil, p.errf("left operand of throughout must be an expression")
		}
		r, err := p.parseSeqThroughout()
		if err != nil {
			return nil, err
		}
		return &SeqThroughout{E: se.E, S: r}, nil
	}
	return l, nil
}

func (p *parser) parseSeqDelay() (Sequence, error) {
	var left Sequence
	if p.at(sv.Punct, "##") {
		d, err := p.parseDelay()
		if err != nil {
			return nil, err
		}
		r, err := p.parseSeqDelayOperand()
		if err != nil {
			return nil, err
		}
		left = &SeqDelay{L: nil, D: d, R: r}
	} else {
		var err error
		left, err = p.parseSeqPrimary()
		if err != nil {
			return nil, err
		}
	}
	for p.at(sv.Punct, "##") {
		d, err := p.parseDelay()
		if err != nil {
			return nil, err
		}
		r, err := p.parseSeqDelayOperand()
		if err != nil {
			return nil, err
		}
		left = &SeqDelay{L: left, D: d, R: r}
	}
	return left, nil
}

// parseSeqDelayOperand parses the sequence following a cycle delay; a
// further leading delay (##1 ##1 b) nests as a sub-sequence, which is
// equivalent under concatenation associativity.
func (p *parser) parseSeqDelayOperand() (Sequence, error) {
	if p.at(sv.Punct, "##") {
		return p.parseSeqDelay()
	}
	return p.parseSeqPrimary()
}

func (p *parser) parseDelay() (Delay, error) {
	if _, err := p.expect(sv.Punct, "##"); err != nil {
		return Delay{}, err
	}
	if p.accept(sv.Punct, "[") {
		lo, err := p.parseInt()
		if err != nil {
			return Delay{}, err
		}
		// Lenient single-value bracket form ##[n], accepted by
		// commercial tools as ##[n:n].
		if p.accept(sv.Punct, "]") {
			return Delay{Lo: lo, Hi: lo}, nil
		}
		if _, err := p.expect(sv.Punct, ":"); err != nil {
			return Delay{}, err
		}
		if p.accept(sv.Punct, "$") {
			if _, err := p.expect(sv.Punct, "]"); err != nil {
				return Delay{}, err
			}
			return Delay{Lo: lo, Inf: true}, nil
		}
		hi, err := p.parseInt()
		if err != nil {
			return Delay{}, err
		}
		if _, err := p.expect(sv.Punct, "]"); err != nil {
			return Delay{}, err
		}
		return Delay{Lo: lo, Hi: hi}, nil
	}
	n, err := p.parseInt()
	if err != nil {
		return Delay{}, err
	}
	return Delay{Lo: n, Hi: n}, nil
}

func (p *parser) parseInt() (int, error) {
	t, err := p.expect(sv.Number, "")
	if err != nil {
		return 0, err
	}
	lit, err := sv.ParseLiteral(t.Text)
	if err != nil {
		return 0, fmt.Errorf("%v: %v", t.Pos, err)
	}
	return int(lit.Value), nil
}

func (p *parser) parseSeqPrimary() (Sequence, error) {
	var s Sequence
	switch {
	case p.at(sv.Keyword, "first_match"):
		p.next()
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		inner, err := p.parseSequence()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
		s = &SeqFirstMatch{S: inner}
	case p.at(sv.Punct, "("):
		// Ambiguous: (expr), (sequence), or (property). Try the
		// expression grammar first (most common), then the sequence
		// grammar, then a full property.
		save := p.i
		e, err := p.parseExpr()
		if err == nil && !p.seqContinues() {
			s = &SeqExpr{E: e}
			break
		}
		p.i = save
		p.next() // (
		seq, err := p.parseSequence()
		if err == nil && p.at(sv.Punct, ")") {
			p.next()
			s = seq
			break
		}
		p.i = save
		p.next() // (
		prop, perr := p.parseProperty()
		if perr != nil {
			if err != nil {
				return nil, err
			}
			return nil, perr
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
		if ps, ok := prop.(*PropSeq); ok && !ps.Explicit {
			s = ps.S
		} else {
			s = &seqWrappedProp{p: prop}
		}
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s = &SeqExpr{E: e}
	}
	// repetition postfix
	for p.at(sv.Punct, "[*") {
		p.next()
		if p.accept(sv.Punct, "]") {
			s = &SeqRepeat{S: s, Lo: 0, Inf: true}
			continue
		}
		lo, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		rep := &SeqRepeat{S: s, Lo: lo, Hi: lo}
		if p.accept(sv.Punct, ":") {
			if p.accept(sv.Punct, "$") {
				rep.Inf = true
			} else {
				hi, err := p.parseInt()
				if err != nil {
					return nil, err
				}
				rep.Hi = hi
			}
		}
		if _, err := p.expect(sv.Punct, "]"); err != nil {
			return nil, err
		}
		s = rep
	}
	return s, nil
}

// seqContinues reports whether the upcoming token continues an
// expression-level parse context (i.e. the parenthesized form we just
// read was genuinely an expression).
func (p *parser) seqContinues() bool {
	t := p.peek()
	if t.Kind != sv.Punct {
		return false
	}
	switch t.Text {
	case "&&", "||", "==", "!=", "===", "!==", "<", "<=", ">", ">=",
		"&", "|", "^", "~^", "^~", "+", "-", "*", "/", "%",
		"<<", ">>", "<<<", ">>>", "?", "[":
		return true
	}
	return false
}

// ---- expression grammar ---------------------------------------------

// binary precedence levels, weakest first.
var exprLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^", "~^", "^~"},
	{"&"},
	{"==", "!=", "===", "!=="},
	{"<", "<=", ">", ">="},
	{"<<", ">>", "<<<", ">>>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseExpr() (Expr, error) {
	return p.parseCond()
}

func (p *parser) parseCond() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept(sv.Punct, "?") {
		return c, nil
	}
	t, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, ":"); err != nil {
		return nil, err
	}
	e, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, T: t, E: e}, nil
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(exprLevels) {
		return p.parseUnary()
	}
	l, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		for _, op := range exprLevels[level] {
			if p.at(sv.Punct, op) {
				matched = op
				break
			}
		}
		if matched == "" {
			return l, nil
		}
		p.next()
		r, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: matched, X: l, Y: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == sv.Punct {
		switch t.Text {
		case "!", "~", "-", "+", "&", "|", "^", "~&", "~|", "~^", "^~":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Text, X: x}, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(sv.Punct, "[") {
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(sv.Punct, ":") {
			lo, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sv.Punct, "]"); err != nil {
				return nil, err
			}
			e = &Select{X: e, Hi: idx, Lo: lo}
			continue
		}
		if _, err := p.expect(sv.Punct, "]"); err != nil {
			return nil, err
		}
		e = &Index{X: e, Idx: idx}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case sv.Number:
		p.next()
		lit, err := sv.ParseLiteral(t.Text)
		if err != nil {
			return nil, fmt.Errorf("%v: %v", t.Pos, err)
		}
		return &Num{Text: t.Text, Value: lit.Value, Width: lit.Width, Fill: lit.Fill}, nil
	case sv.Ident:
		p.next()
		if p.at(sv.Punct, "(") {
			// Function-call syntax on a plain identifier. SVA has no
			// user functions in assertion context; the validator
			// rejects these as hallucinated operators (e.g.
			// eventually(x)).
			return p.parseCallArgs(t.Text)
		}
		return &Ident{Name: t.Text}, nil
	case sv.SysIdent:
		p.next()
		if p.at(sv.Punct, "(") {
			return p.parseCallArgs(t.Text)
		}
		return &Call{Name: t.Text}, nil
	case sv.Punct:
		switch t.Text {
		case "(":
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sv.Punct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		case "{":
			return p.parseConcat()
		}
	}
	return nil, p.errf("unexpected token %v in expression", t)
}

func (p *parser) parseCallArgs(name string) (Expr, error) {
	if _, err := p.expect(sv.Punct, "("); err != nil {
		return nil, err
	}
	var args []Expr
	if !p.at(sv.Punct, ")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.accept(sv.Punct, ",") {
				break
			}
		}
	}
	if _, err := p.expect(sv.Punct, ")"); err != nil {
		return nil, err
	}
	return &Call{Name: name, Args: args}, nil
}

func (p *parser) parseConcat() (Expr, error) {
	if _, err := p.expect(sv.Punct, "{"); err != nil {
		return nil, err
	}
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	// replication {n{v}}
	if p.at(sv.Punct, "{") {
		p.next()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, "}"); err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, "}"); err != nil {
			return nil, err
		}
		return &Repl{Count: first, Value: v}, nil
	}
	parts := []Expr{first}
	for p.accept(sv.Punct, ",") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		parts = append(parts, e)
	}
	if _, err := p.expect(sv.Punct, "}"); err != nil {
		return nil, err
	}
	return &Concat{Parts: parts}, nil
}
