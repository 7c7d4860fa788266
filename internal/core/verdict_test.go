package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/mc"
	"fveval/internal/sat"
)

// TestScore pins the scoring of every (Class, Reason) pair: Syntax
// fails only for rejected text, Full needs a proof (bounded ones
// included), and Partial — AGR's helper validity — needs a compiled
// target and every helper proven. A Design2SVA verdict has no helpers
// and never scores Partial.
func TestScore(t *testing.T) {
	classes := []struct {
		class        formal.Class
		syntax, full bool
	}{
		{formal.Undecided, true, false},
		{formal.Proven, true, true},
		{formal.Falsified, true, false},
		{formal.SyntaxError, false, false},
		{formal.ElabError, false, false},
	}
	proven := formal.Verdict{Class: formal.Proven, Depth: 1}
	for _, c := range classes {
		for _, r := range []formal.Reason{formal.NoReason, formal.Bound, formal.Budget} {
			v := formal.Verdict{Class: c.class, Reason: r, Depth: 3}
			what := fmt.Sprintf("%v/%d", c.class, r)
			want := Outcome{InstanceID: "i", Response: "x", Syntax: c.syntax, Full: c.full}
			if got := score("i", "x", v, nil); got != want {
				t.Errorf("design target %s: %+v, want %+v", what, got, want)
			}
			want.Partial = c.syntax
			if got := score("i", "x", v, []formal.Verdict{proven, proven}); got != want {
				t.Errorf("target %s, helpers proven: %+v, want %+v", what, got, want)
			}
			want = Outcome{InstanceID: "i", Response: "x", Syntax: true, Full: true, Partial: c.class == formal.Proven}
			if got := score("i", "x", proven, []formal.Verdict{proven, v}); got != want {
				t.Errorf("target proven, helper %s: %+v, want %+v", what, got, want)
			}
		}
	}
}

func TestCheckerVerdict(t *testing.T) {
	if got, want := checkerVerdict(fmt.Errorf("bmc: %w", sat.ErrBudget)), (formal.Verdict{Class: formal.Undecided, Reason: formal.Budget}); got != want {
		t.Errorf("budget error: %+v, want %+v", got, want)
	}
	if got := checkerVerdict(errors.New("undeclared identifier")); got.Class != formal.ElabError {
		t.Errorf("other error: %+v, want an elaboration error", got)
	}
}

// TestDesignVerdictClasses checks the class JudgeDesign scores from:
// text that does not parse, a property the checker rejects, and a
// Table 5 candidate whose depth-9 counterexample a budget of one
// solver window cannot reach.
func TestDesignVerdictClasses(t *testing.T) {
	var inst *rtlgen.Instance
	for _, in := range rtlgen.Sweep96("pipeline") {
		if in.ID == "pipeline_nu_1_dp_8_wd_16_cx_6_1044" {
			inst = in
		}
	}
	if inst == nil {
		t.Fatal("instance pipeline_nu_1_dp_8_wd_16_cx_6_1044 is not in the sweep")
	}
	const prefix = "assert property (@(posedge clk) disable iff (tb_reset) "
	budget1 := mc.Options{Search: formal.Search{Budget: 1}}
	cases := []struct {
		what, snippet string
		opt           mc.Options
		want          formal.Verdict
	}{
		{"no parse", prefix + "(", mc.Options{}, formal.Verdict{Class: formal.SyntaxError}},
		{"undeclared signal", prefix + "nosuch_sig);", mc.Options{}, formal.Verdict{Class: formal.ElabError}},
		{"deep counterexample", prefix + "out_vld |-> (out_data != 'd0));", mc.Options{}, formal.Verdict{Class: formal.Falsified, Depth: 9}},
		{"deep counterexample, budget 1", prefix + "out_vld |-> (out_data != 'd0));", budget1, formal.Verdict{Class: formal.Undecided, Reason: formal.Budget}},
	}
	for _, c := range cases {
		if got := designVerdict(inst, c.snippet, c.opt, nil); got != c.want {
			t.Errorf("%s: %+v, want %+v", c.what, got, c.want)
		}
	}
	// An undecided assertion does not hide a later rejected one.
	both := prefix + "out_vld |-> (out_data != 'd0));\n" + prefix + "nosuch_sig);"
	if got := designVerdict(inst, both, budget1, nil); got.Class != formal.ElabError {
		t.Errorf("undecided then undeclared, budget 1: %+v, want an elaboration error", got)
	}
	if out := JudgeDesign(inst, both, budget1, nil); out.Syntax {
		t.Errorf("undecided then undeclared, budget 1: scored %+v, want a syntax failure", out)
	}
}

// TestHelperSetRejections checks that every helper the checker rejects
// fails the whole AGR set's syntax metric: one that does not lower
// (nested unbounded delays) as well as one naming an undeclared
// signal, each beside the golden helpers.
func TestHelperSetRejections(t *testing.T) {
	var inst *helpergen.Instance
	for _, in := range helpergen.Sweep() {
		if in.ID == "agr_stride_wd_4_st_2_tg_5" {
			inst = in
		}
	}
	if inst == nil {
		t.Fatal("instance agr_stride_wd_4_st_2_tg_5 is not in the sweep")
	}
	golden := strings.Join(inst.Helpers, "\n")
	if o := JudgeHelper(inst, golden, mc.Options{}, nil); !o.Syntax || !o.Partial || !o.Full {
		t.Fatalf("golden helpers: %+v, want every metric", o)
	}
	for _, extra := range []string{
		"h_nested: assert property (@(posedge clk) clk |-> ##[1:$] clk ##[1:$] clk);",
		"h_undeclared: assert property (@(posedge clk) nosuch_sig);",
	} {
		if o := JudgeHelper(inst, golden+"\n"+extra, mc.Options{}, nil); o.Syntax || o.Partial || o.Full {
			t.Errorf("golden helpers plus %q: %+v, want a syntax failure", extra, o)
		}
	}
}
