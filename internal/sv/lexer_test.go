package sv

import (
	"strings"
	"testing"
)

func kinds(ts []Token) []Kind {
	out := make([]Kind, len(ts))
	for i, t := range ts {
		out[i] = t.Kind
	}
	return out
}

func texts(ts []Token) []string {
	out := make([]string, 0, len(ts))
	for _, t := range ts {
		if t.Kind == EOF {
			continue
		}
		out = append(out, t.Text)
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	ts, err := Tokenize("assert property (@(posedge clk) a |-> ##2 b);")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"assert", "property", "(", "@", "(", "posedge",
		"clk", ")", "a", "|->", "##", "2", "b", ")", ";"}
	got := texts(ts)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestNumberLiterals(t *testing.T) {
	cases := []struct {
		in    string
		value uint64
		width int
		fill  bool
	}{
		{"42", 42, 0, false},
		{"1_000", 1000, 0, false},
		{"2'b01", 1, 2, false},
		{"2'b00", 0, 2, false},
		{"8'hFF", 255, 8, false},
		{"'d0", 0, 0, false},
		{"'d15", 15, 0, false},
		{"4'd9", 9, 4, false},
		{"3'o7", 7, 3, false},
		{"'0", 0, 0, true},
		{"'1", ^uint64(0), 0, true},
		{"4'b1x0z", 0b1000, 4, false}, // x/z lower to 0 in two-state
		{"2'b111", 3, 2, false},       // truncated to width
	}
	for _, c := range cases {
		ts, err := Tokenize(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if ts[0].Kind != Number {
			t.Fatalf("%s: kind %v", c.in, ts[0].Kind)
		}
		lit, err := ParseLiteral(ts[0].Text)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if lit.Value != c.value || lit.Width != c.width || lit.Fill != c.fill {
			t.Fatalf("%s: got %+v want value=%d width=%d fill=%v",
				c.in, lit, c.value, c.width, c.fill)
		}
	}
}

func TestSysIdents(t *testing.T) {
	ts, err := Tokenize("$countones(sig) $onehot0({a,b}) $past(x, 2)")
	if err != nil {
		t.Fatal(err)
	}
	var sys []string
	for _, tok := range ts {
		if tok.Kind == SysIdent {
			sys = append(sys, tok.Text)
		}
	}
	want := []string{"$countones", "$onehot0", "$past"}
	if strings.Join(sys, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v want %v", sys, want)
	}
}

func TestOperators(t *testing.T) {
	ts, err := Tokenize("a !== b === c ~^ d <<< 2 >>> 1 |=> e ##[0:$] f")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(texts(ts), " ")
	want := "a !== b === c ~^ d <<< 2 >>> 1 |=> e ## [ 0 : $ ] f"
	if joined != want {
		t.Fatalf("got %q want %q", joined, want)
	}
}

func TestComments(t *testing.T) {
	ts, err := Tokenize("a // line comment\n/* block\ncomment */ b")
	if err != nil {
		t.Fatal(err)
	}
	got := texts(ts)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	if _, err := Tokenize("a /* never closed"); err == nil {
		t.Fatalf("expected error")
	}
}

func TestMacroToken(t *testing.T) {
	ts, err := Tokenize("`WIDTH")
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Kind != Macro || ts[0].Text != "WIDTH" {
		t.Fatalf("got %v %q", ts[0].Kind, ts[0].Text)
	}
}

func TestPositions(t *testing.T) {
	ts, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Pos.Line != 1 || ts[0].Pos.Col != 1 {
		t.Fatalf("a at %v", ts[0].Pos)
	}
	if ts[1].Pos.Line != 2 || ts[1].Pos.Col != 3 {
		t.Fatalf("b at %v", ts[1].Pos)
	}
}

func TestStrings(t *testing.T) {
	ts, err := Tokenize(`"hello world"`)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Kind != String || ts[0].Text != "hello world" {
		t.Fatalf("got %v %q", ts[0].Kind, ts[0].Text)
	}
	if _, err := Tokenize(`"unterminated`); err == nil {
		t.Fatalf("expected error for unterminated string")
	}
}

func TestKeywordSet(t *testing.T) {
	kind := func(s string) Kind {
		ts, err := Tokenize(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return ts[0].Kind
	}
	for _, kw := range []string{"module", "s_eventually", "strong", "iff", "throughout"} {
		if kind(kw) != Keyword {
			t.Errorf("%s must be a keyword", kw)
		}
	}
	for _, id := range []string{"eventually", "foo", "clk", "tb_reset"} {
		if kind(id) != Ident {
			t.Errorf("%s must lex as an identifier", id)
		}
	}
}

func TestMalformedLiterals(t *testing.T) {
	for _, bad := range []string{"4'", "'b", "2'q01"} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("%q: expected lex error", bad)
		}
	}
}
