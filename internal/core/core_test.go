package core

import (
	"strings"
	"testing"

	"fveval/internal/equiv"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/mc"
)

func TestLoadHuman(t *testing.T) {
	insts, err := LoadHuman()
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 79 {
		t.Fatalf("instances: %d want 79", len(insts))
	}
	for _, in := range insts {
		if in.Sigs == nil || len(in.Sigs.Widths) == 0 {
			t.Fatalf("%s: missing signal environment", in.ID)
		}
	}
}

func TestLoadMachine(t *testing.T) {
	insts := LoadMachine(30)
	if len(insts) != 30 {
		t.Fatalf("instances: %d", len(insts))
	}
}

func TestJudgeTranslationClasses(t *testing.T) {
	insts, err := LoadHuman()
	if err != nil {
		t.Fatal(err)
	}
	in := insts[0] // fifo underflow check
	ref := in.Reference
	// exact reference: full pass
	o := JudgeTranslation(in.ID, "```systemverilog\n"+ref.String()+"\n```", ref, in.Sigs, equiv.Options{}, nil)
	if !o.Syntax || !o.Full || !o.Partial {
		t.Fatalf("reference must fully pass: %+v", o)
	}
	if o.BLEU < 0.9 {
		t.Fatalf("reference BLEU: %f", o.BLEU)
	}
	// broken syntax
	o = JudgeTranslation(in.ID, "assert property (@(posedge clk) a |-> eventually(b));", ref, in.Sigs, equiv.Options{}, nil)
	if o.Syntax {
		t.Fatalf("hallucinated operator must fail syntax")
	}
	// undeclared signal -> elaboration failure -> syntax fail
	o = JudgeTranslation(in.ID, "assert property (@(posedge clk) ghost |-> rd_pop);", ref, in.Sigs, equiv.Options{}, nil)
	if o.Syntax {
		t.Fatalf("undeclared signal must fail syntax")
	}
	// weaker variant: partial only
	o = JudgeTranslation(in.ID,
		"assert property (@(posedge clk) disable iff (tb_reset) (fifo_empty && rd_pop && wr_push) !== 1'b1);",
		ref, in.Sigs, equiv.Options{}, nil)
	if !o.Syntax || o.Full || !o.Partial {
		t.Fatalf("weakened variant must be partial: %+v", o)
	}
}

func TestAggregate(t *testing.T) {
	outs := []Outcome{
		{Syntax: true, Full: true, Partial: true, BLEU: 1.0},
		{Syntax: true, Full: false, Partial: true, BLEU: 0.5},
		{Syntax: false, Full: false, Partial: false, BLEU: 0.25},
		{Syntax: true, Full: false, Partial: false, BLEU: 0.25},
	}
	r := Aggregate("m", outs)
	if r.Count != 4 || r.Syntax != 0.75 || r.Func != 0.25 || r.Partial != 0.5 {
		t.Fatalf("aggregate: %+v", r)
	}
	if r.BLEU != 0.5 {
		t.Fatalf("bleu: %f", r.BLEU)
	}
	empty := Aggregate("m", nil)
	if empty.Count != 0 || empty.Syntax != 0 {
		t.Fatalf("empty aggregate: %+v", empty)
	}
}

func TestAggregatePassKBounds(t *testing.T) {
	// 2 instances x 3 samples; instance 0 always passes Func, instance 1 never
	outs := []Outcome{
		{Syntax: true, Full: true, Partial: true},
		{Syntax: true, Full: true, Partial: true},
		{Syntax: true, Full: true, Partial: true},
		{Syntax: true},
		{Syntax: true},
		{Syntax: false},
	}
	r := AggregatePassK("m", 2, 3, []int{1, 3}, outs)
	if r.FuncK[1] != 0.5 || r.FuncK[3] != 0.5 {
		t.Fatalf("func@k: %+v", r.FuncK)
	}
	if r.SyntaxK[3] < r.SyntaxK[1] {
		t.Fatalf("pass@3 must dominate pass@1: %+v", r.SyntaxK)
	}
}

func TestJudgeDesign(t *testing.T) {
	inst := rtlgen.GenerateFSM(rtlgen.FSMParams{States: 4, Edges: 6, Width: 8, Complexity: 2, Seed: 9})
	// ground-truth successor assertion must be provable
	succ := inst.FSM.Succ[0]
	body := "fsm_out == S0 |=> ("
	for i, tgt := range succ {
		if i > 0 {
			body += " || "
		}
		body += "fsm_out == S" + string(rune('0'+tgt))
	}
	body += ")"
	good := "assert property (@(posedge clk) disable iff (tb_reset) " + body + ");"
	syn, proven := JudgeDesign(inst, good, mc.Options{}, nil)
	if !syn || !proven {
		t.Fatalf("ground-truth assertion: syntax=%v proven=%v\n%s", syn, proven, good)
	}
	// DUT-internal signal reference must fail syntax (elaboration)
	bad := "assert property (@(posedge clk) disable iff (tb_reset) state == 'd0);"
	syn, _ = JudgeDesign(inst, bad, mc.Options{}, nil)
	if syn {
		t.Fatalf("DUT-internal signal must fail elaboration")
	}
	// wrong successor claim parses but is not proven
	wrong := "assert property (@(posedge clk) disable iff (tb_reset) fsm_out == S0 |=> (fsm_out == S0));"
	if intNotIn(succ, 0) {
		syn, proven = JudgeDesign(inst, wrong, mc.Options{}, nil)
		if !syn {
			t.Fatalf("wrong claim must still pass syntax")
		}
		if proven {
			t.Fatalf("wrong claim must not be proven")
		}
	}
}

func intNotIn(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return false
		}
	}
	return true
}

func TestFiguresRender(t *testing.T) {
	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f2, "Figure 2") {
		t.Fatalf("figure 2 malformed")
	}
	if !strings.Contains(Figure3(30), "Figure 3") {
		t.Fatalf("figure 3 malformed")
	}
	if !strings.Contains(Figure4(), "pipeline") {
		t.Fatalf("figure 4 malformed")
	}
	// Figure6 is a pure formatter over reports (the engine runs the
	// evaluation); feed it a synthetic report.
	rep := Aggregate("toy-model", []Outcome{
		{Full: true, BLEU: 0.9},
		{Full: false, BLEU: 0.8},
		{Full: true, BLEU: 0.2},
	})
	f6 := Figure6([]ModelReport{rep})
	if !strings.Contains(f6, "corr(BLEU, Func)") || !strings.Contains(f6, "toy-model") {
		t.Fatalf("figure 6 malformed:\n%s", f6)
	}
}

func TestTable6(t *testing.T) {
	out := FormatTable6()
	for _, want := range []string{"1R1W FIFO", "Arbiter", "79"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 6 missing %q:\n%s", want, out)
		}
	}
}
