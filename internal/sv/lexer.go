// Package sv provides the shared SystemVerilog lexer used by both the
// SVA assertion parser and the RTL parser, plus literal parsing
// helpers.
package sv

import (
	"fmt"
	"strings"
)

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	Ident
	SysIdent // $countones, $past, ...
	Number   // 42, 2'b01, 'd0, '0, 8'hFF
	String
	Punct   // operators and punctuation, in Text
	Keyword // SystemVerilog keyword, in Text
	Macro   // `NAME after preprocessing failures (kept for diagnostics)
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "identifier"
	case SysIdent:
		return "system identifier"
	case Number:
		return "number"
	case String:
		return "string"
	case Punct:
		return "punctuation"
	case Keyword:
		return "keyword"
	case Macro:
		return "macro"
	}
	return "unknown"
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind == EOF {
		return "EOF"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords recognized as Keyword tokens. Words outside this set lex as
// identifiers even if they are reserved elsewhere in the language.
var keywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"inout": true, "wire": true, "reg": true, "logic": true,
	"parameter": true, "localparam": true, "assign": true,
	"always": true, "always_ff": true, "always_comb": true,
	"begin": true, "end": true, "if": true, "else": true,
	"case": true, "endcase": true, "default": true,
	"posedge": true, "negedge": true, "or": true, "and": true,
	"not": true, "genvar": true, "generate": true, "endgenerate": true,
	"for": true, "assert": true, "assume": true, "cover": true,
	"property": true, "endproperty": true, "sequence": true,
	"endsequence": true, "disable": true, "iff": true,
	"intersect": true, "throughout": true, "within": true,
	"first_match": true, "strong": true, "weak": true,
	"s_eventually": true, "s_until": true, "until": true,
	"until_with": true, "s_until_with": true, "s_always": true,
	"s_nexttime": true, "nexttime": true, "implies": true,
	"initial": true, "function": true, "endfunction": true,
	"integer": true, "signed": true, "unsigned": true,
	"localparams": false,
}

// multi-character punctuation, longest first.
var puncts = []string{
	"|->", "|=>", "<<<", ">>>", "===", "!==", "##", "&&", "||",
	"==", "!=", "<=", ">=", "<<", ">>", "~&", "~|", "~^", "^~",
	"+:", "-:", "::", "[*", "[=", "[->", "++", "--",
	"(", ")", "[", "]", "{", "}", ",", ";", ":", "@", "#", ".",
	"+", "-", "*", "/", "%", "<", ">", "!", "&", "|", "^", "~",
	"?", "=", "$", "`",
}

// Lexer tokenizes SystemVerilog source text.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isBasedDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') ||
		c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '_' || c == '?'
}

// skipSpace consumes whitespace and comments. It returns an error for
// unterminated block comments.
func (lx *Lexer) skipSpace() error {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			start := Pos{lx.line, lx.col}
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return fmt.Errorf("%v: unterminated block comment", start)
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := Pos{lx.line, lx.col}
	if lx.pos >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := lx.peekByte()

	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentCont(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if keywords[text] {
			return Token{Kind: Keyword, Text: text, Pos: pos}, nil
		}
		return Token{Kind: Ident, Text: text, Pos: pos}, nil

	case c == '$':
		if isIdentStart(lx.peekAt(1)) {
			start := lx.pos
			lx.advance() // $
			for lx.pos < len(lx.src) && isIdentCont(lx.peekByte()) {
				lx.advance()
			}
			return Token{Kind: SysIdent, Text: lx.src[start:lx.pos], Pos: pos}, nil
		}
		lx.advance()
		return Token{Kind: Punct, Text: "$", Pos: pos}, nil

	case isDigit(c):
		start := lx.pos
		for lx.pos < len(lx.src) && (isDigit(lx.peekByte()) || lx.peekByte() == '_') {
			lx.advance()
		}
		// sized based literal: 2'b01
		if lx.peekByte() == '\'' {
			return lx.lexBasedTail(start, pos)
		}
		return Token{Kind: Number, Text: lx.src[start:lx.pos], Pos: pos}, nil

	case c == '\'':
		// unsized based literal 'd0, or '0 / '1 fill literal
		return lx.lexBasedTail(lx.pos, pos)

	case c == '"':
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && lx.peekByte() != '"' {
			if lx.peekByte() == '\\' {
				lx.advance()
			}
			if lx.pos < len(lx.src) {
				lx.advance()
			}
		}
		if lx.pos >= len(lx.src) {
			return Token{}, fmt.Errorf("%v: unterminated string", pos)
		}
		text := lx.src[start:lx.pos]
		lx.advance() // closing quote
		return Token{Kind: String, Text: text, Pos: pos}, nil

	case c == '`':
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentCont(lx.peekByte()) {
			lx.advance()
		}
		return Token{Kind: Macro, Text: lx.src[start:lx.pos], Pos: pos}, nil
	}

	for _, p := range puncts {
		if strings.HasPrefix(lx.src[lx.pos:], p) {
			for range p {
				lx.advance()
			}
			return Token{Kind: Punct, Text: p, Pos: pos}, nil
		}
	}
	return Token{}, fmt.Errorf("%v: unexpected character %q", pos, string(c))
}

// lexBasedTail lexes from a ' (with optional preceding size already
// consumed starting at start).
func (lx *Lexer) lexBasedTail(start int, pos Pos) (Token, error) {
	lx.advance() // '
	c := lx.peekByte()
	switch c {
	case '0', '1':
		// unbased unsized fill literal '0 or '1 — but only if not
		// followed by more digits (then it's a malformed literal).
		lx.advance()
		return Token{Kind: Number, Text: lx.src[start:lx.pos], Pos: pos}, nil
	case 'b', 'B', 'd', 'D', 'h', 'H', 'o', 'O', 's', 'S':
		if c == 's' || c == 'S' {
			lx.advance()
			c = lx.peekByte()
			if c != 'b' && c != 'B' && c != 'd' && c != 'D' && c != 'h' && c != 'H' && c != 'o' && c != 'O' {
				return Token{}, fmt.Errorf("%v: malformed signed literal", pos)
			}
		}
		lx.advance() // base char
		digStart := lx.pos
		for lx.pos < len(lx.src) && isBasedDigit(lx.peekByte()) {
			lx.advance()
		}
		if lx.pos == digStart {
			return Token{}, fmt.Errorf("%v: based literal missing digits", pos)
		}
		return Token{Kind: Number, Text: lx.src[start:lx.pos], Pos: pos}, nil
	}
	return Token{}, fmt.Errorf("%v: malformed literal after '", pos)
}

// Tokenize lexes the whole input. The result is presized for one
// token per three bytes of source: NL2SVA assertions and Design2SVA
// RTL average 3.1 and 3.8 bytes a token, so they fill it without
// regrowing.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	out := make([]Token, 0, len(src)/3+8)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

// Literal describes a parsed SystemVerilog number literal.
type Literal struct {
	Value uint64
	Width int  // 0 = unsized
	Fill  bool // true for '0 / '1 fill literals
}

// ParseLiteral parses the text of a Number token.
func ParseLiteral(text string) (Literal, error) {
	orig := text
	if text == "'0" {
		return Literal{Value: 0, Fill: true}, nil
	}
	if text == "'1" {
		return Literal{Value: ^uint64(0), Fill: true}, nil
	}
	width := 0
	if i := strings.IndexByte(text, '\''); i >= 0 {
		if i > 0 {
			w, err := parseDec(text[:i])
			if err != nil {
				return Literal{}, fmt.Errorf("bad size in %q: %v", orig, err)
			}
			width = int(w)
		}
		text = text[i+1:]
		// skip signed marker
		if len(text) > 0 && (text[0] == 's' || text[0] == 'S') {
			text = text[1:]
		}
		if len(text) == 0 {
			return Literal{}, fmt.Errorf("empty literal %q", orig)
		}
		base := text[0]
		digits := strings.ReplaceAll(text[1:], "_", "")
		digits = strings.Map(func(r rune) rune {
			// two-state semantics: x/z/? lower to 0
			switch r {
			case 'x', 'X', 'z', 'Z', '?':
				return '0'
			}
			return r
		}, digits)
		var val uint64
		var err error
		switch base {
		case 'b', 'B':
			val, err = parseRadix(digits, 2)
		case 'o', 'O':
			val, err = parseRadix(digits, 8)
		case 'd', 'D':
			val, err = parseDec(digits)
		case 'h', 'H':
			val, err = parseRadix(digits, 16)
		default:
			return Literal{}, fmt.Errorf("unknown base %q in %q", string(base), orig)
		}
		if err != nil {
			return Literal{}, fmt.Errorf("bad digits in %q: %v", orig, err)
		}
		if width > 0 && width < 64 {
			val &= (1 << uint(width)) - 1
		}
		return Literal{Value: val, Width: width}, nil
	}
	v, err := parseDec(strings.ReplaceAll(text, "_", ""))
	if err != nil {
		return Literal{}, fmt.Errorf("bad number %q: %v", orig, err)
	}
	return Literal{Value: v}, nil
}

func parseDec(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit %q", string(c))
		}
		v = v*10 + uint64(c-'0')
	}
	return v, nil
}

func parseRadix(s string, radix uint64) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad digit %q", string(c))
		}
		if d >= radix {
			return 0, fmt.Errorf("digit %q out of range for base %d", string(c), radix)
		}
		v = v*radix + d
	}
	return v, nil
}
