package mc

import (
	"strings"
	"testing"

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

// sameVerdict fails unless got and want agree on status, depth and
// boundedness.
func sameVerdict(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Status != want.Status || got.Depth != want.Depth || got.Bounded != want.Bounded {
		t.Errorf("%s: shared context (%v, depth %d, bounded %v), fresh (%v, depth %d, bounded %v)",
			what, got.Status, got.Depth, got.Bounded, want.Status, want.Depth, want.Bounded)
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
	for _, opt := range []Options{{}, {SimPatterns: 128}} {
		d := NewDesign()
		for _, a := range []*sva.Assertion{deep, shallow} {
			got, err := d.CheckAssertion(sys, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := CheckAssertion(sys, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameVerdict(t, a.String(), got, want)
			if a == shallow && (got.Status != Falsified || got.Depth != 1) {
				t.Errorf("sim=%d: shallow check got (%v, depth %d), want falsified at depth 1", opt.SimPatterns, got.Status, got.Depth)
			}
		}
		if d.base.fe.frames <= 4 {
			t.Fatalf("deep check unrolled only %d frames; the test needs more than 4", d.base.fe.frames)
		}
	}
}

// TestDesignHelperNetCollision checks two systems with one transition
// relation whose benches define the helper net probe differently. Each
// check must see its own definition: the first probe reaches 2'b11, the
// second never does.
func TestDesignHelperNetCollision(t *testing.T) {
	withProbe := func(def string) *rtl.System {
		return elabTop(t, strings.Replace(fsmSrc, "endmodule", "wire [1:0] probe;\nassign probe = "+def+";\nendmodule", 1), "fsm")
	}
	direct, masked := withProbe("state"), withProbe("{1'b0, state[0]}")
	if fpD, _ := fingerprint(direct); fpD == "" {
		t.Fatal("fsm system has no fingerprint")
	} else if fpM, _ := fingerprint(masked); fpM != fpD {
		t.Fatal("helper net changed the transition fingerprint; the test would not share a session")
	}
	a := parseA(t, `assert property (@(posedge clk) probe != 2'b11);`)
	for _, order := range [][]*rtl.System{{direct, masked}, {masked, direct}} {
		d := NewDesign()
		for _, sys := range order {
			got, err := d.CheckAssertion(sys, a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := CheckAssertion(sys, a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameVerdict(t, "probe check", got, want)
		}
	}
	if res, _ := CheckAssertion(direct, a, Options{}); res.Status != Falsified {
		t.Errorf("direct probe: got %v, want falsified", res.Status)
	}
	if res, _ := CheckAssertion(masked, a, Options{}); res.Status != Proven {
		t.Errorf("masked probe: got %v, want proven", res.Status)
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
	if res.Status != Proven {
		t.Fatalf("target with lemma: got %v, want proven", res.Status)
	}
	got, err := d.CheckAssertion(sys, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := CheckAssertion(sys, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, "target after lemma check", got, want)
	if got.Status == Proven {
		t.Error("the lemma of an earlier check strengthened a later one")
	}
}
