package mc

import (
	"fveval/internal/formal"
	"testing"

	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// TestAssumptionsConstrainProofs: a saturating counter that only
// increments. Without an input assumption the "count stays below 3"
// property is falsified; with `assume property` limiting the enable
// duty cycle it becomes unprovable-by-bmc but the never-decrements
// property stays proven; and an assumption forcing enable low makes
// even the strict bound provable.
func TestAssumptionsConstrainProofs(t *testing.T) {
	base := `
module sat_ctr(clk, reset_, en, cnt);
input clk;
input reset_;
input en;
output reg [3:0] cnt;
always @(posedge clk) begin
  if (!reset_) cnt <= 'd0;
  else if (en && (cnt != 4'd15)) cnt <= cnt + 'd1;
end
`
	mk := func(extra string) *rtl.System {
		f, err := rtl.Parse(base + extra + "\nendmodule")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := rtl.Elaborate(f, "sat_ctr", nil)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	prop := `assert property (@(posedge clk) disable iff (!reset_) cnt <= 4'd2);`
	a, err := sva.ParseAssertion(prop)
	if err != nil {
		t.Fatal(err)
	}

	// no assumption: enable free, counter climbs past 2
	res, err := NewDesign().CheckAssertion(mk(""), a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != formal.Falsified {
		t.Fatalf("unconstrained: expected falsified, got %v", res.Class)
	}

	// assumption pins enable low: counter frozen at 0, property proven
	sys := mk(`no_enable: assume property (@(posedge clk) !en);`)
	if len(sys.Assumes) != 1 {
		t.Fatalf("assume not collected: %d", len(sys.Assumes))
	}
	res, err = NewDesign().CheckAssertion(sys, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != formal.Proven {
		t.Fatalf("with assume !en: expected proven, got %v (depth %d)", res.Class, res.Depth)
	}

	// cover statements parse and are retained without affecting proofs
	sys = mk(`assume property (@(posedge clk) !en);
cover property (@(posedge clk) cnt == 4'd0);`)
	if len(sys.Covers) != 1 {
		t.Fatalf("cover not collected")
	}
	res, err = NewDesign().CheckAssertion(sys, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != formal.Proven {
		t.Fatalf("with cover present: expected proven, got %v", res.Class)
	}
}

// TestAssumePropertyKinds covers the assertion-kind surface in the
// parser and printer.
func TestAssumePropertyKinds(t *testing.T) {
	for _, kind := range []string{"assert", "assume", "cover"} {
		src := kind + ` property (@(posedge clk) a |-> b);`
		a, err := sva.ParseAssertion(src)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if a.KindOrAssert() != kind {
			t.Fatalf("kind: %q want %q", a.KindOrAssert(), kind)
		}
		if got := a.String(); got[:len(kind)] != kind {
			t.Fatalf("printer lost kind: %q", got)
		}
		c := a.Clone()
		if c.KindOrAssert() != kind {
			t.Fatalf("clone lost kind")
		}
	}
}

const (
	// S3 is reachable.
	coverS3 = `cover property (@(posedge clk) state == 2'b11);`
	// S2 never steps to itself.
	coverS2SelfLoop = `cover property (@(posedge clk) state == 2'b10 && next_state == 2'b10);`
)

// TestCoverReachability: cover properties find witnesses for reachable
// conditions and report bounded-unreachable otherwise.
func TestCoverReachability(t *testing.T) {
	sys := fsmSystem(t)
	cov, err := sva.ParseAssertion(coverS3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewDesign().CheckCover(sys, cov, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != formal.Proven {
		t.Fatalf("S3 is reachable; got %v", res.Class)
	}
	if res.Cex == nil || len(res.Cex.Frames) == 0 {
		t.Fatalf("cover witness missing")
	}
	unreach, err := sva.ParseAssertion(coverS2SelfLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err = NewDesign().CheckCover(sys, unreach, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != formal.Falsified {
		t.Fatalf("S2 self-loop does not exist; got %v", res.Class)
	}
	if res.Reason != formal.Bound {
		t.Fatalf("unreachable cover verdicts are bounded")
	}
}
