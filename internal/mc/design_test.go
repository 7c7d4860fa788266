package mc

import (
	"testing"

	"fveval/internal/formal"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// Ownership rules of the per-design context: whatever earlier checks
// asserted in the shared session pair, a check must return exactly the
// verdict a fresh pair gives it.

func elabTop(t *testing.T, src, top string) *rtl.System {
	t.Helper()
	f, err := rtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rtl.Elaborate(f, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sameVerdict fails unless got and want have the same verdict.
func sameVerdict(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Verdict != want.Verdict {
		t.Errorf("%s: shared context (%v, depth %d, reason %v), fresh (%v, depth %d, reason %v)",
			what, got.Class, got.Depth, got.Reason, want.Class, want.Depth, want.Reason)
	}
}

// deadEndSrc is a counter that runs freely from 0 (reset is assumed
// off) and is assumed never to reach 3: every trace dead-ends at frame
// 3, so an assumption instance at frame 3 or later rejects every
// trace of that length.
const deadEndSrc = `
module dead_end(clk, reset_, cnt);
input clk;
input reset_;
output reg [3:0] cnt;
always @(posedge clk) begin
  if (!reset_) cnt <= 4'd0;
  else cnt <= cnt + 4'd1;
end
no_reset: assume property (@(posedge clk) reset_);
never3: assume property (@(posedge clk) cnt != 4'd3);
endmodule
`

// TestDesignAssumptionWindow checks a deep property first, taking the
// shared unroll well past frame 3, and then a property a fresh check
// falsifies at depth 1. Assumption instances beyond the second check's
// own bound would kill its two-frame counterexample.
func TestDesignAssumptionWindow(t *testing.T) {
	sys := elabTop(t, deadEndSrc, "dead_end")
	deep := parseA(t, `assert property (@(posedge clk) cnt != 4'd9);`)
	shallow := parseA(t, `assert property (@(posedge clk) cnt != 4'd0);`)
	for _, opt := range []Options{{}, {Search: formal.Search{SimPatterns: 128}}} {
		d := NewDesign()
		for _, a := range []*sva.Assertion{deep, shallow} {
			got, err := d.CheckAssertion(sys, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewDesign().CheckAssertion(sys, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameVerdict(t, a.String(), got, want)
			if a == shallow && (got.Class != formal.Falsified || got.Depth != 1) {
				t.Errorf("sim=%d: shallow check got (%v, depth %d), want falsified at depth 1", opt.SimPatterns, got.Class, got.Depth)
			}
		}
		if d.base.fe.frames <= 4 {
			t.Fatalf("deep check unrolled only %d frames; the test needs more than 4", d.base.fe.frames)
		}
	}
}

// TestDesignHelperNetCollision checks two overlays of one base whose
// snippets define the helper net probe differently. They share the
// base's transition relation, and so a session pair, yet each check
// must see its own definition: the first probe reaches 2'b11, the
// second never does.
func TestDesignHelperNetCollision(t *testing.T) {
	f, err := rtl.Parse(fsmSrc + `
module fsm_tb(clk, reset_, in_A, in_B, fsm_out);
input clk;
input reset_;
input [7:0] in_A;
input [7:0] in_B;
input [1:0] fsm_out;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	base, err := rtl.ElaborateBase(f, "fsm", "fsm_tb")
	if err != nil {
		t.Fatal(err)
	}
	withProbe := func(def string) *rtl.System {
		sys, err := base.Overlay("wire [1:0] probe;\nassign probe = " + def + ";")
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	direct, masked := withProbe("fsm_out"), withProbe("{1'b0, fsm_out[0]}")
	if direct.Base() == direct || direct.Base() != masked.Base() {
		t.Fatal("the probes are not overlays of one base; the test would not share a session")
	}
	a := parseA(t, `assert property (@(posedge clk) probe != 2'b11);`)
	for _, order := range [][]*rtl.System{{direct, masked}, {masked, direct}} {
		d := NewDesign()
		for _, sys := range order {
			got, err := d.CheckAssertion(sys, a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewDesign().CheckAssertion(sys, a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameVerdict(t, "probe check", got, want)
		}
	}
	if res, _ := NewDesign().CheckAssertion(direct, a, Options{}); res.Class != formal.Falsified {
		t.Errorf("direct probe: got %v, want falsified", res.Class)
	}
	if res, _ := NewDesign().CheckAssertion(masked, a, Options{}); res.Class != formal.Proven {
		t.Errorf("masked probe: got %v, want proven", res.Class)
	}
}

// TestDesignLemmaGating proves the stride target with the alignment
// lemma assumed, then checks the target alone in the same context: the
// lemma retired with its check, so the target is unprovable again.
func TestDesignLemmaGating(t *testing.T) {
	sys := strideSystem(t)
	target := parseA(t, strideTarget)
	d := NewDesign()
	res, _, err := d.CheckWithLemmas(sys, target, []*sva.Assertion{parseA(t, strideAlign)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != formal.Proven {
		t.Fatalf("target with lemma: got %v, want proven", res.Class)
	}
	got, err := d.CheckAssertion(sys, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewDesign().CheckAssertion(sys, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, "target after lemma check", got, want)
	if got.Class == formal.Proven {
		t.Error("the lemma of an earlier check strengthened a later one")
	}
}

// TestDesignLivenessAndCoverMatchFreshChecks runs TestLiveness's
// properties and TestCoverReachability's covers through one Design,
// interleaved with safety checks of the same systems, so every lasso
// and cover query lands on a base session that earlier checks have
// already unrolled, encoded and constrained. Each result must match a
// fresh one-shot check in its verdict, and every
// falsified liveness result must carry its lasso's loop entry.
func TestDesignLivenessAndCoverMatchFreshChecks(t *testing.T) {
	rot, fsm := rotSystem(t), fsmSystem(t)
	steps := []struct {
		sys   *rtl.System
		src   string
		cover bool
	}{
		{rot, `assert property (@(posedge clk) tok != 3'b000);`, false},
		{rot, tokenReturns, false},
		{rot, `assert property (@(posedge clk) disable iff (!reset_) ##2 tok != 3'b100);`, false},
		{rot, tokenVanishes, false},
		{rot, tokenReturns, false},
		{fsm, `assert property (@(posedge clk) disable iff (!reset_) state != 2'b11);`, false},
		{fsm, coverS3, true},
		{fsm, `assert property (@(posedge clk) fsm_out == state);`, false},
		{fsm, coverS2SelfLoop, true},
		// From S1 the machine cycles S1, S3 forever: S0 never returns.
		{fsm, `assert property (@(posedge clk) disable iff (!reset_) s_eventually state == 2'b00);`, false},
		{fsm, coverS3, true},
	}
	for _, opt := range []Options{{}, {Search: formal.Search{SimPatterns: 128, Bank: formal.NewBank(0)}}} {
		d := NewDesign()
		for i, st := range steps {
			a := parseA(t, st.src)
			var got, want Result
			var err1, err2 error
			if st.cover {
				got, err1 = d.CheckCover(st.sys, a, opt)
				want, err2 = oneShotCover(st.sys, a, Options{})
			} else {
				got, err1 = d.CheckAssertion(st.sys, a, opt)
				want, err2 = oracleCheckAssertion(st.sys, a, Options{})
			}
			if err1 != nil || err2 != nil {
				t.Fatalf("step %d %s: errors %v / %v", i, st.src, err1, err2)
			}
			if got.Verdict != want.Verdict {
				t.Fatalf("step %d %s (sim %d): design (%v, depth %d, reason %v) vs fresh (%v, depth %d, reason %v)",
					i, st.src, opt.SimPatterns, got.Class, got.Depth, got.Reason, want.Class, want.Depth, want.Reason)
			}
			f, err := ltl.LowerAssertion(a)
			if err != nil {
				t.Fatal(err)
			}
			if ltl.HasUnbounded(f) && got.Class == formal.Falsified && (got.Cex == nil || got.Cex.Loop < 0) {
				t.Fatalf("step %d %s: falsified liveness result without a loop: %+v", i, st.src, got.Cex)
			}
		}
	}
}
