package sva

import (
	"strings"
	"testing"
)

// parseBody parses a bare property as the body of an assertion.
func parseBody(src string) (Property, error) {
	a, err := ParseAssertion("assert property (@(posedge clk) " + src + ");")
	if err != nil {
		return nil, err
	}
	return a.Body, nil
}

// parseGuard parses a bare expression as an assertion's disable-iff
// guard.
func parseGuard(src string) (Expr, error) {
	a, err := ParseAssertion("assert property (@(posedge clk) disable iff (" + src + ") 1);")
	if err != nil {
		return nil, err
	}
	return a.DisableIff, nil
}

// paperAssertions are assertions taken verbatim from the FVEval paper
// (Figures 2, 7, 8, 11, 13, 16); all must parse and validate.
var paperAssertions = []string{
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		(fifo_empty && rd_pop) !== 1'b1);`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		(fifo_full && wr_push) !== 1'b1);`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		(rd_pop && (fifo_out_data != rd_data)) !== 1'b1);`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		!fifo_empty |-> strong(##[0:$] rd_pop));`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		wr_push |-> strong(##[0:$] rd_pop));`,
	`assert property (@(posedge clk) disable iff (tb_reset)
		(!busy && |tb_req && (tb_gnt == 'd0)) !== 1'b1);`,
	`assert property (@(posedge clk) disable iff (tb_reset)
		(tb_req && !busy) |-> tb_gnt);`,
	`assert property (@(posedge clk) disable iff (tb_reset)
		|tb_req && !busy |=> ##[1:$] (|tb_gnt));`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		wr_push |-> ##[1:$] rd_pop);`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		!$onehot0({hold,busy,cont_gnt}) !== 1'b1);`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		!(busy && hold && cont_gnt));`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		!(busy && (hold || cont_gnt)) && !(hold && (busy || cont_gnt)) && !(cont_gnt && (busy || hold)));`,
	`assert property(@(posedge clk)
		((sig_G && sig_J) |-> ##2 ((^sig_G === 1'b1) && &sig_B)));`,
	`assert property (@(posedge clk)
		(sig_G && sig_J) |-> ##2 (^{sig_G} && (sig_B == '1)));`,
	`assert property(@(posedge clk)
		((sig_D || ^sig_H) && sig_F));`,
	`assert property (@(posedge clk)
		(sig_D || ($countones(sig_H) % 2 == 1)) |-> sig_F);`,
	`assert property(@(posedge clk)
		((sig_D || ($bits(sig_H) % 2 == 1)) && sig_F));`,
	`assert property(@(posedge clk)
		(sig_G !== 1'b1) |-> ##4 sig_J);`,
	`assert property(@(posedge clk)
		(!sig_G) |-> ##[4] sig_J);`,
	`assert property(@(posedge clk) ($rose(!sig_G) |=> ##[3] sig_J));`,
	`assert property(@(posedge clk)
		(sig_G !== 1'b1) |-> ##[1:4] sig_J);`,
	`assert property(@(posedge clk)
		(|sig_C || (sig_D !== sig_A)) |=> s_eventually(sig_F));`,
	`assert property(@(posedge clk)
		((sig_J < (sig_B == (sig_C ^ ~|sig_H))) == ((|sig_A === !sig_J) || sig_B)));`,
	`assert property (@(posedge clk) disable iff (tb_reset)
		(a && b) != 1'b1);`,
	`assert property (@(posedge clk) disable iff (!reset_)
		(state == 2'b10) |-> ##1 ((in_D == 'd0 && in_C == 'd0) || (next_state == 2'b11)));`,
	`assert property (@(posedge clk) disable iff (reset_)
		state == 2'b10 |-> (next_state == 2'b00 || next_state == 2'b01 || next_state == 2'b11));`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		rd_pop |-> (rd_data == fifo_out_data));`,
	`asrt: assert property (@(posedge clk)
		disable iff (tb_reset)
		(rd_pop && (rd_data !== fifo_out_data)) | (!rd_pop && (rd_data === fifo_out_data)));`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		rd_pop |-> $rose(fifo_rd_ptr) |=> rd_data == fifo_out_data);`,
	`asrt: assert property (@(posedge clk) disable iff (tb_reset)
		!((rd_pop && rd_data !== fifo_out_data) && !fifo_empty));`,
	`assert property (@(posedge clk) disable iff (!reset_)
		tb_in_vld |-> ##6 tb_out_vld);`,
	`assert property (@(posedge clk) disable iff (tb_reset)
		$rose(data_in_vld) |=> ##[1:6] out_vld);`,
	`assert property (@(posedge clk) disable iff (tb_reset)
		$rose(fsm_out == 2'b00) |-> ##1 (in_A_reg != in_B_reg));`,
}

func TestPaperAssertionsParseAndValidate(t *testing.T) {
	for i, src := range paperAssertions {
		a, err := ParseAssertion(src)
		if err != nil {
			t.Errorf("case %d: parse error: %v\nsource: %s", i, err, src)
			continue
		}
		if err := Validate(a); err != nil {
			t.Errorf("case %d: validate error: %v\nsource: %s", i, err, src)
		}
	}
}

func TestHallucinatedOperatorsFailSyntax(t *testing.T) {
	bad := []string{
		// Llama's invalid "eventually" operator (paper Fig. 7).
		`asrt_wr_push_rd_pop: assert property (@(posedge clk) disable iff (tb_reset)
			wr_push |-> eventually(rd_pop));`,
		// Unknown system function.
		`assert property (@(posedge clk) a |-> $sometimes(b));`,
		// Unbalanced parenthesis.
		`assert property (@(posedge clk) disable iff (tb_reset)
			|tb_req && !busy |=> ##[1:$] (|tb_gnt)));`,
		// Bad delay range.
		`assert property (@(posedge clk) a |-> ##[3:1] b);`,
		// Bad repetition range.
		`assert property (@(posedge clk) a[*4:2] |-> b);`,
		// Missing clock.
		`assert property (a |-> b);`,
		// Unbounded antecedent.
		`assert property (@(posedge clk) a ##[1:$] b |-> c);`,
		// Empty body.
		`assert property (@(posedge clk));`,
		// Wrong arity.
		`assert property (@(posedge clk) $countones(a, b) == 1);`,
	}
	for i, src := range bad {
		if err := CheckSyntax(src); err == nil {
			t.Errorf("case %d: expected syntax failure\nsource: %s", i, src)
		}
	}
}

func TestRoundTripCanonical(t *testing.T) {
	// Printing then reparsing must reproduce the same canonical string.
	for i, src := range paperAssertions {
		a, err := ParseAssertion(src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		printed := a.String()
		b, err := ParseAssertion(printed)
		if err != nil {
			t.Errorf("case %d: reparse of %q: %v", i, printed, err)
			continue
		}
		if b.String() != printed {
			t.Errorf("case %d: round trip not stable:\n first: %s\nsecond: %s",
				i, printed, b.String())
		}
	}
}

func TestAssertionFields(t *testing.T) {
	a, err := ParseAssertion(`my_label: assert property (@(negedge clkX) disable iff (rst) a |=> b);`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Label != "my_label" {
		t.Errorf("label: %q", a.Label)
	}
	if a.ClockEdge != "negedge" || a.ClockName != "clkX" {
		t.Errorf("clock: %s %s", a.ClockEdge, a.ClockName)
	}
	if a.DisableIff == nil || a.DisableIff.String() != "rst" {
		t.Errorf("disable iff: %v", a.DisableIff)
	}
	impl, ok := a.Body.(*PropImpl)
	if !ok || impl.Overlap {
		t.Fatalf("body: %T %v", a.Body, a.Body)
	}
}

func TestSequenceShapes(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical body print
	}{
		{`a ##1 b ##2 c`, "a ##1 b ##2 c"},
		{`##2 a`, "##2 a"},
		{`a ##[1:3] b`, "a ##[1:3] b"},
		{`a ##[0:$] b |-> c`, ""}, // validated elsewhere (unbounded antecedent)
		{`a[*3]`, "a[*3]"},
		{`a[*1:2] |-> b`, "a[*1:2] |-> b"},
		{`x throughout (a ##1 b)`, "x throughout (a ##1 b)"},
		{`(a ##1 b) intersect (c ##1 d)`, "(a ##1 b) intersect (c ##1 d)"},
		{`first_match(a ##[1:2] b) |-> c`, "first_match(a ##[1:2] b) |-> c"},
		{`strong(##[0:$] e)`, "strong(##[0:$] e)"},
		{`weak(a ##1 b)`, "weak(a ##1 b)"},
	}
	for _, c := range cases {
		p, err := parseBody(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if c.want != "" && p.String() != c.want {
			t.Errorf("%s: printed %q want %q", c.src, p.String(), c.want)
		}
	}
}

func TestPropertyOperators(t *testing.T) {
	cases := []string{
		"not (a |-> b)",
		"(a |-> b) and (c |-> d)",
		"(a |-> b) or (c |-> d)",
		"a until b",
		"a s_until b",
		"a until_with b",
		"always (a |-> b)",
		"s_eventually a",
		"nexttime a",
		"s_nexttime (a && b)",
		"if (a) (b |-> c) else (d |-> e)",
		"(a |-> b) implies (c |-> d)",
	}
	for _, src := range cases {
		p, err := parseBody(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		// reparse canonical form
		if _, err := parseBody(p.String()); err != nil {
			t.Errorf("%s: canonical %q fails reparse: %v", src, p.String(), err)
		}
	}
}

func TestExprPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"a + b * c", "a + (b * c)"},
		{"a * b + c", "(a * b) + c"},
		{"a == b && c", "(a == b) && c"},
		{"a && b || c", "(a && b) || c"},
		{"a | b ^ c & d", "a | (b ^ (c & d))"},
		{"!a && b", "!a && b"},
		{"a ? b : c ? d : e", "a ? b : (c ? d : e)"},
		{"a << 2 + 1", "a << (2 + 1)"},
		{"^sig_G === 1'b1", "(^sig_G) === 1'b1"},
	}
	for _, c := range cases {
		e, err := parseGuard(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		got, err := parseGuard(c.want)
		if err != nil {
			t.Fatalf("bad want %q: %v", c.want, err)
		}
		if e.String() != got.String() {
			t.Errorf("%s: parsed as %q, want %q (printed %q)",
				c.src, e.String(), c.want, got.String())
		}
	}
}

func TestExprForms(t *testing.T) {
	cases := []string{
		"{a, b, c}",
		"{3{ab}}",
		"sig[3]",
		"sig[7:4]",
		"$countones(sig) % 2 == 1",
		"$past(x, 2)",
		"(a != b) < 'd0",
		"~|sig_H",
		"&sig_B",
		"fsm_out == 2'b10",
		"in_C <= 'd1",
	}
	for _, src := range cases {
		e, err := parseGuard(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		again, err := parseGuard(e.String())
		if err != nil {
			t.Errorf("%s: canonical %q fails reparse: %v", src, e.String(), err)
			continue
		}
		if again.String() != e.String() {
			t.Errorf("%s: unstable print: %q vs %q", src, e.String(), again.String())
		}
	}
}

func TestSignals(t *testing.T) {
	a, err := ParseAssertion(`assert property (@(posedge clk) disable iff (tb_reset)
		wr_push |-> strong(##[0:$] rd_pop));`)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(a.Signals(), ",")
	want := "rd_pop,tb_reset,wr_push"
	if got != want {
		t.Errorf("signals: %q want %q", got, want)
	}
}

func TestClone(t *testing.T) {
	a, err := ParseAssertion(paperAssertions[3])
	if err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	if c.String() != a.String() {
		t.Fatalf("clone print mismatch")
	}
	// mutating the clone must not affect the original
	c.Label = "changed"
	c.Body = &PropNot{P: c.Body}
	if c.String() == a.String() {
		t.Fatalf("clone aliases original")
	}
}

func TestTrailingInputRejected(t *testing.T) {
	if _, err := ParseAssertion(`assert property (@(posedge clk) a); extra`); err == nil {
		t.Fatalf("expected trailing input error")
	}
}
