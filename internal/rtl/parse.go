package rtl

import (
	"fmt"
	"slices"
	"strings"

	"fveval/internal/sv"
	"fveval/internal/sva"
)

// preprocess expands `define macros (object-like, single line) and
// strips the directives. Unknown macros cause an error at parse time.
func preprocess(src string) (string, map[string]string) {
	defines := map[string]string{}
	var out []string
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "`define") {
			rest := strings.TrimSpace(trimmed[len("`define"):])
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) == 2 {
				defines[parts[0]] = strings.TrimSpace(parts[1])
			} else if len(parts) == 1 && parts[0] != "" {
				defines[parts[0]] = "1"
			}
			out = append(out, "")
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n"), defines
}

// Parse parses a whole source file: it runs the preprocessor, so every
// macro use sees the file's last definition of that macro, then parses
// the modules in order. A Design2SVA row parses its design, testbench
// and spliced text as one such file (core.DesignRow).
func Parse(src string) (*File, error) {
	text, defines := preprocess(src)
	toks, err := sv.Tokenize(text)
	if err != nil {
		return nil, err
	}
	// Splice macro uses.
	toks, err = expandMacros(toks, defines)
	if err != nil {
		return nil, err
	}
	p := &rparser{toks: toks}
	f := &File{}
	for !p.at(sv.EOF, "") {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		f.Modules = append(f.Modules, m)
	}
	return f, nil
}

// expandMacros splices macro uses; a stream without any comes back
// as is.
func expandMacros(toks []sv.Token, defines map[string]string) ([]sv.Token, error) {
	if !slices.ContainsFunc(toks, func(t sv.Token) bool { return t.Kind == sv.Macro }) {
		return toks, nil
	}
	// Lex each macro's body once, sizing the output exactly.
	bodies := map[string][]sv.Token{}
	n := len(toks)
	for _, t := range toks {
		if t.Kind != sv.Macro {
			continue
		}
		body, ok := bodies[t.Text]
		if !ok {
			def, ok := defines[t.Text]
			if !ok {
				return nil, fmt.Errorf("%v: undefined macro `%s", t.Pos, t.Text)
			}
			sub, err := sv.Tokenize(def)
			if err != nil {
				return nil, fmt.Errorf("%v: in macro `%s: %v", t.Pos, t.Text, err)
			}
			body = sub[:len(sub)-1] // drop EOF
			bodies[t.Text] = body
		}
		n += len(body) - 1
	}
	out := make([]sv.Token, 0, n)
	for _, t := range toks {
		if t.Kind != sv.Macro {
			out = append(out, t)
			continue
		}
		for _, st := range bodies[t.Text] {
			st.Pos = t.Pos
			out = append(out, st)
		}
	}
	return out, nil
}

type rparser struct {
	toks []sv.Token
	i    int
}

func (p *rparser) peek() sv.Token { return p.toks[p.i] }
func (p *rparser) peekAt(off int) sv.Token {
	if p.i+off >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.i+off]
}

func (p *rparser) next() sv.Token {
	t := p.toks[p.i]
	if t.Kind != sv.EOF {
		p.i++
	}
	return t
}

func (p *rparser) at(k sv.Kind, text string) bool {
	t := p.peek()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *rparser) accept(k sv.Kind, text string) bool {
	if p.at(k, text) {
		p.next()
		return true
	}
	return false
}

func (p *rparser) expect(k sv.Kind, text string) (sv.Token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	return sv.Token{}, fmt.Errorf("%v: expected %q, found %v", p.peek().Pos, text, p.peek())
}

func (p *rparser) parseExpr() (sva.Expr, error) {
	e, ni, err := sva.ParseExprTokens(p.toks, p.i)
	if err != nil {
		return nil, err
	}
	p.i = ni
	return e, nil
}

func (p *rparser) parseModule() (*Module, error) {
	if _, err := p.expect(sv.Keyword, "module"); err != nil {
		return nil, err
	}
	name, err := p.expect(sv.Ident, "")
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name.Text}
	// optional #(parameter ...) header — not used by the benchmark
	// sources but accepted.
	if p.accept(sv.Punct, "#") {
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		for !p.at(sv.Punct, ")") {
			p.accept(sv.Keyword, "parameter")
			pname, err := p.expect(sv.Ident, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sv.Punct, "="); err != nil {
				return nil, err
			}
			def, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, Param{Name: pname.Text, Default: def})
			if !p.accept(sv.Punct, ",") {
				break
			}
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
	}
	// port list
	if p.accept(sv.Punct, "(") {
		for !p.at(sv.Punct, ")") {
			// tolerate ANSI-style "input ..." in the port list by
			// skipping keywords and ranges.
			for p.at(sv.Keyword, "input") || p.at(sv.Keyword, "output") ||
				p.at(sv.Keyword, "inout") || p.at(sv.Keyword, "wire") ||
				p.at(sv.Keyword, "reg") || p.at(sv.Keyword, "logic") {
				p.next()
			}
			for p.at(sv.Punct, "[") {
				if err := p.skipBrackets(); err != nil {
					return nil, err
				}
			}
			pn, err := p.expect(sv.Ident, "")
			if err != nil {
				return nil, err
			}
			m.Ports = append(m.Ports, pn.Text)
			if !p.accept(sv.Punct, ",") {
				break
			}
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(sv.Punct, ";"); err != nil {
		return nil, err
	}
	// items
	for !p.at(sv.Keyword, "endmodule") {
		if p.at(sv.EOF, "") {
			return nil, fmt.Errorf("unexpected EOF inside module %s", m.Name)
		}
		items, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, items...)
	}
	p.next() // endmodule
	return m, nil
}

func (p *rparser) skipBrackets() error {
	if _, err := p.expect(sv.Punct, "["); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		switch {
		case t.Kind == sv.EOF:
			return fmt.Errorf("unterminated bracket")
		case t.Kind == sv.Punct && t.Text == "[":
			depth++
		case t.Kind == sv.Punct && t.Text == "]":
			depth--
		}
	}
	return nil
}

// parseItem parses one module item; parameter lists may yield several.
func (p *rparser) parseItem() ([]Item, error) {
	t := p.peek()
	switch {
	case t.Kind == sv.Keyword && (t.Text == "parameter" || t.Text == "localparam"):
		return p.parseParams()
	case t.Kind == sv.Keyword && (t.Text == "input" || t.Text == "output" ||
		t.Text == "inout" || t.Text == "wire" || t.Text == "reg" ||
		t.Text == "logic" || t.Text == "genvar" || t.Text == "integer"):
		return p.parseDecl()
	case t.Kind == sv.Keyword && t.Text == "assign":
		return p.parseAssign()
	case t.Kind == sv.Keyword && (t.Text == "always" || t.Text == "always_ff" || t.Text == "always_comb"):
		a, err := p.parseAlways()
		if err != nil {
			return nil, err
		}
		return []Item{a}, nil
	case t.Kind == sv.Keyword && t.Text == "generate":
		p.next()
		var out []Item
		for !p.at(sv.Keyword, "endgenerate") {
			items, err := p.parseItem()
			if err != nil {
				return nil, err
			}
			out = append(out, items...)
		}
		p.next()
		return out, nil
	case t.Kind == sv.Keyword && t.Text == "for":
		g, err := p.parseGenFor()
		if err != nil {
			return nil, err
		}
		return []Item{g}, nil
	case t.Kind == sv.Keyword && (t.Text == "assert" || t.Text == "assume" || t.Text == "cover"):
		return p.parseAssertItem("")
	case t.Kind == sv.Keyword && t.Text == "initial":
		return nil, fmt.Errorf("%v: initial blocks are not allowed in formal testbenches", t.Pos)
	case t.Kind == sv.Ident:
		// Either a labeled assertion, an instantiation, or a genvar
		// for-loop using a declared genvar.
		if p.peekAt(1).Kind == sv.Punct && p.peekAt(1).Text == ":" &&
			p.peekAt(2).Kind == sv.Keyword &&
			(p.peekAt(2).Text == "assert" || p.peekAt(2).Text == "assume" || p.peekAt(2).Text == "cover") {
			label := p.next().Text
			p.next() // :
			return p.parseAssertItem(label)
		}
		return p.parseInstance()
	}
	return nil, fmt.Errorf("%v: unexpected token %v at module level", t.Pos, t)
}

func (p *rparser) parseParams() ([]Item, error) {
	kw := p.next().Text
	isLocal := kw == "localparam"
	var out []Item
	_ = out
	var items []Item
	for {
		name, err := p.expect(sv.Ident, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, "="); err != nil {
			return nil, err
		}
		def, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		items = append(items, &paramItem{Param{Name: name.Text, Default: def, IsLocal: isLocal}})
		if !p.accept(sv.Punct, ",") {
			break
		}
	}
	if _, err := p.expect(sv.Punct, ";"); err != nil {
		return nil, err
	}
	return items, nil
}

// paramItem wraps a Param as an Item so parameters stay in source
// order relative to generate loops.
type paramItem struct{ P Param }

func (*paramItem) itemNode() {}

func (p *rparser) parseDecl() ([]Item, error) {
	kind := p.next().Text
	kind2 := ""
	if kind == "input" || kind == "output" || kind == "inout" {
		if p.at(sv.Keyword, "reg") || p.at(sv.Keyword, "wire") || p.at(sv.Keyword, "logic") {
			kind2 = p.next().Text
		}
	}
	p.accept(sv.Keyword, "signed")
	p.accept(sv.Keyword, "unsigned")
	var packed []Range
	for p.at(sv.Punct, "[") {
		r, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		packed = append(packed, r)
	}
	var items []Item
	for {
		name, err := p.expect(sv.Ident, "")
		if err != nil {
			return nil, err
		}
		var unpacked []Range
		for p.at(sv.Punct, "[") {
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			unpacked = append(unpacked, r)
		}
		d := &Decl{Kind: kind, Kind2: kind2, Packed: packed, Name: name.Text, Unpacked: unpacked}
		items = append(items, d)
		if p.accept(sv.Punct, "=") {
			// declaration assignment: logic x = expr;
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, &Assign{LHS: &sva.Ident{Name: name.Text}, RHS: rhs})
		}
		if !p.accept(sv.Punct, ",") {
			break
		}
	}
	if _, err := p.expect(sv.Punct, ";"); err != nil {
		return nil, err
	}
	return items, nil
}

func (p *rparser) parseRange() (Range, error) {
	if _, err := p.expect(sv.Punct, "["); err != nil {
		return Range{}, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return Range{}, err
	}
	if _, err := p.expect(sv.Punct, ":"); err != nil {
		return Range{}, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return Range{}, err
	}
	if _, err := p.expect(sv.Punct, "]"); err != nil {
		return Range{}, err
	}
	return Range{Hi: hi, Lo: lo}, nil
}

func (p *rparser) parseAssign() ([]Item, error) {
	p.next() // assign
	var items []Item
	for {
		lhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, "="); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		items = append(items, &Assign{LHS: lhs, RHS: rhs})
		if !p.accept(sv.Punct, ",") {
			break
		}
	}
	if _, err := p.expect(sv.Punct, ";"); err != nil {
		return nil, err
	}
	return items, nil
}

func (p *rparser) parseAlways() (*Always, error) {
	kw := p.next().Text
	a := &Always{}
	switch kw {
	case "always_comb":
		a.Kind = "comb"
	case "always_ff":
		a.Kind = "ff"
	default:
		a.Kind = "plain"
	}
	if a.Kind != "comb" {
		if p.accept(sv.Punct, "@") {
			if _, err := p.expect(sv.Punct, "("); err != nil {
				return nil, err
			}
			for {
				edge := ""
				if p.accept(sv.Keyword, "posedge") {
					edge = "posedge"
				} else if p.accept(sv.Keyword, "negedge") {
					edge = "negedge"
				} else {
					return nil, fmt.Errorf("%v: expected posedge/negedge", p.peek().Pos)
				}
				sig, err := p.expect(sv.Ident, "")
				if err != nil {
					return nil, err
				}
				a.Edges = append(a.Edges, Edge{Kind: edge, Signal: sig.Text})
				if !p.accept(sv.Keyword, "or") && !p.accept(sv.Punct, ",") {
					break
				}
			}
			if _, err := p.expect(sv.Punct, ")"); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	a.Body = body
	return a, nil
}

func (p *rparser) parseStmtOrBlock() ([]Stmt, error) {
	if p.accept(sv.Keyword, "begin") {
		// optional block label
		if p.accept(sv.Punct, ":") {
			if _, err := p.expect(sv.Ident, ""); err != nil {
				return nil, err
			}
		}
		var out []Stmt
		for !p.at(sv.Keyword, "end") {
			if p.at(sv.EOF, "") {
				return nil, fmt.Errorf("unexpected EOF in block")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if s != nil {
				out = append(out, s)
			}
		}
		p.next() // end
		return out, nil
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	return []Stmt{s}, nil
}

func (p *rparser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.Kind == sv.Punct && t.Text == ";":
		p.next()
		return nil, nil
	case t.Kind == sv.Keyword && t.Text == "if":
		p.next()
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmtOrBlock()
		if err != nil {
			return nil, err
		}
		st := &If{Cond: cond, Then: then}
		if p.accept(sv.Keyword, "else") {
			els, err := p.parseStmtOrBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	case t.Kind == sv.Keyword && t.Text == "case":
		p.next()
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		subj, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
		c := &Case{Subject: subj}
		for !p.at(sv.Keyword, "endcase") {
			if p.at(sv.EOF, "") {
				return nil, fmt.Errorf("unexpected EOF in case")
			}
			var item CaseItem
			if p.accept(sv.Keyword, "default") {
				p.accept(sv.Punct, ":")
			} else {
				for {
					lbl, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Labels = append(item.Labels, lbl)
					if !p.accept(sv.Punct, ",") {
						break
					}
				}
				if _, err := p.expect(sv.Punct, ":"); err != nil {
					return nil, err
				}
			}
			body, err := p.parseStmtOrBlock()
			if err != nil {
				return nil, err
			}
			item.Body = body
			c.Items = append(c.Items, item)
		}
		p.next() // endcase
		return c, nil
	}
	// assignment: lhs <= rhs; or lhs = rhs;
	lhs, ni, err := sva.ParseLValueTokens(p.toks, p.i)
	if err != nil {
		return nil, err
	}
	p.i = ni
	nb := false
	switch {
	case p.accept(sv.Punct, "<="):
		nb = true
	case p.accept(sv.Punct, "="):
	default:
		return nil, fmt.Errorf("%v: expected assignment operator", p.peek().Pos)
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, ";"); err != nil {
		return nil, err
	}
	return &ProcAssign{LHS: lhs, RHS: rhs, NonBlocking: nb}, nil
}

func (p *rparser) parseGenFor() (*GenFor, error) {
	p.next() // for
	if _, err := p.expect(sv.Punct, "("); err != nil {
		return nil, err
	}
	p.accept(sv.Keyword, "genvar")
	name, err := p.expect(sv.Ident, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, "="); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, ";"); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, ";"); err != nil {
		return nil, err
	}
	// step: i++ / i=i+1 / i=i+2 ...
	stepVar, err := p.expect(sv.Ident, "")
	if err != nil {
		return nil, err
	}
	if stepVar.Text != name.Text {
		return nil, fmt.Errorf("%v: for-loop step must update %s", stepVar.Pos, name.Text)
	}
	var step sva.Expr
	if p.accept(sv.Punct, "++") {
		step = &sva.Binary{Op: "+", X: &sva.Ident{Name: name.Text}, Y: &sva.Num{Text: "1", Value: 1}}
	} else {
		if _, err := p.expect(sv.Punct, "="); err != nil {
			return nil, err
		}
		step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(sv.Punct, ")"); err != nil {
		return nil, err
	}
	g := &GenFor{Var: name.Text, Init: init, Cond: cond, Step: step}
	if _, err := p.expect(sv.Keyword, "begin"); err != nil {
		return nil, err
	}
	if p.accept(sv.Punct, ":") {
		lbl, err := p.expect(sv.Ident, "")
		if err != nil {
			return nil, err
		}
		g.Label = lbl.Text
	}
	for !p.at(sv.Keyword, "end") {
		if p.at(sv.EOF, "") {
			return nil, fmt.Errorf("unexpected EOF in generate for")
		}
		items, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		g.Body = append(g.Body, items...)
	}
	p.next() // end
	return g, nil
}

func (p *rparser) parseAssertItem(label string) ([]Item, error) {
	// Re-lex the assertion through the sva parser: capture tokens from
	// "assert" to the closing ");".
	start := p.i
	switch {
	case p.accept(sv.Keyword, "assert"), p.accept(sv.Keyword, "assume"), p.accept(sv.Keyword, "cover"):
	default:
		return nil, fmt.Errorf("%v: expected assert/assume/cover", p.peek().Pos)
	}
	if _, err := p.expect(sv.Keyword, "property"); err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, "("); err != nil {
		return nil, err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		switch {
		case t.Kind == sv.EOF:
			return nil, fmt.Errorf("unterminated assertion")
		case t.Kind == sv.Punct && t.Text == "(":
			depth++
		case t.Kind == sv.Punct && t.Text == ")":
			depth--
		}
	}
	p.accept(sv.Punct, ";")
	var b strings.Builder
	for _, t := range p.toks[start:p.i] {
		if t.Kind == sv.String {
			b.WriteString("\"" + t.Text + "\" ")
			continue
		}
		b.WriteString(t.Text)
		b.WriteString(" ")
	}
	a, err := sva.ParseAssertion(b.String())
	if err != nil {
		return nil, err
	}
	a.Label = label
	return []Item{&AssertItem{A: a}}, nil
}

func (p *rparser) parseInstance() ([]Item, error) {
	modName, err := p.expect(sv.Ident, "")
	if err != nil {
		return nil, err
	}
	inst := &Instance{ModName: modName.Text, Params: map[string]sva.Expr{}, Conns: map[string]sva.Expr{}}
	if p.accept(sv.Punct, "#") {
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		for !p.at(sv.Punct, ")") {
			if _, err := p.expect(sv.Punct, "."); err != nil {
				return nil, err
			}
			pn, err := p.expect(sv.Ident, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sv.Punct, "("); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(sv.Punct, ")"); err != nil {
				return nil, err
			}
			inst.Params[pn.Text] = val
			if !p.accept(sv.Punct, ",") {
				break
			}
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
	}
	instName, err := p.expect(sv.Ident, "")
	if err != nil {
		return nil, err
	}
	inst.Name = instName.Text
	if _, err := p.expect(sv.Punct, "("); err != nil {
		return nil, err
	}
	for !p.at(sv.Punct, ")") {
		if _, err := p.expect(sv.Punct, "."); err != nil {
			return nil, err
		}
		pn, err := p.expect(sv.Ident, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, "("); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sv.Punct, ")"); err != nil {
			return nil, err
		}
		inst.Conns[pn.Text] = val
		if !p.accept(sv.Punct, ",") {
			break
		}
	}
	if _, err := p.expect(sv.Punct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(sv.Punct, ";"); err != nil {
		return nil, err
	}
	return []Item{inst}, nil
}
