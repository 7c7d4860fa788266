package mc

import (
	"testing"

	"fveval/internal/formal"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// strideSrc is a gated stride-2 counter: cnt stays even, but the
// enable input lets the induction-step violation stall past any
// frontier, so even-ness facts about cnt are not k-inductive alone.
const strideSrc = `
module stride(clk, reset_, en, cnt);
input clk;
input reset_;
input en;
output [3:0] cnt;
reg [3:0] cnt_q;
always @(posedge clk) begin
  if (!reset_) begin
    cnt_q <= 'd0;
  end else begin
    cnt_q <= en ? (cnt_q + 'd2) : cnt_q;
  end
end
assign cnt = cnt_q;
endmodule
`

func strideSystem(t *testing.T) *rtl.System {
	t.Helper()
	f, err := rtl.Parse(strideSrc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rtl.Elaborate(f, "stride", nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func parseA(t *testing.T, src string) *sva.Assertion {
	t.Helper()
	a, err := sva.ParseAssertion(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return a
}

const strideTarget = `t: assert property (@(posedge clk) (cnt != 'd5));`
const strideAlign = `h: assert property (@(posedge clk) ((cnt & 'd1) == 'd0));`

// TestLemmaUnlocksTarget is the happy path: the target is not
// k-inductive alone (Undecided), the alignment helper is 1-inductive,
// and assuming it unlocks the target. The helper must be marked
// load-bearing.
func TestLemmaUnlocksTarget(t *testing.T) {
	sys := strideSystem(t)
	target := parseA(t, strideTarget)

	alone, err := NewDesign().CheckAssertion(sys, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if alone.Class != formal.Undecided {
		t.Fatalf("target alone: got %v, want undecided", alone.Class)
	}

	res, lemmas, err := NewDesign().CheckWithLemmas(sys, target, []*sva.Assertion{parseA(t, strideAlign)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != formal.Proven {
		t.Fatalf("target with helper: got %v, want proven", res.Class)
	}
	if len(lemmas) != 1 || lemmas[0].Class != formal.Proven || !lemmas[0].LoadBearing {
		t.Fatalf("lemma report: got %+v, want proved load-bearing", lemmas)
	}
}

// TestUnprovedHelperNeverAssumed is the soundness core: a falsifiable
// helper must not be assumed, even though assuming it would "prove"
// the target. (cnt == 0) is violated on the first enabled step; were
// it assumed regardless, cnt != 5 would follow trivially.
func TestUnprovedHelperNeverAssumed(t *testing.T) {
	sys := strideSystem(t)
	target := parseA(t, strideTarget)
	bogus := parseA(t, `h: assert property (@(posedge clk) (cnt == 'd0));`)

	res, lemmas, err := NewDesign().CheckWithLemmas(sys, target, []*sva.Assertion{bogus}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lemmas[0].Class == formal.Proven {
		t.Fatal("falsifiable helper reported as proved")
	}
	if res.Class != formal.Undecided {
		t.Fatalf("target with unproved helper: got %v, want undecided (helper must not be assumed)", res.Class)
	}
}

// TestLemmaCannotMaskFalsification: assuming a genuinely proved
// invariant must never flip a falsifiable target to proven. cnt == 4
// is reachable (0, 2, 4), so (cnt != 4) is falsified with or without
// the alignment lemma.
func TestLemmaCannotMaskFalsification(t *testing.T) {
	sys := strideSystem(t)
	target := parseA(t, `t: assert property (@(posedge clk) (cnt != 'd4));`)

	res, lemmas, err := NewDesign().CheckWithLemmas(sys, target, []*sva.Assertion{parseA(t, strideAlign)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lemmas[0].Class != formal.Proven {
		t.Fatal("alignment helper should prove")
	}
	if res.Class != formal.Falsified {
		t.Fatalf("reachable violation under assumed lemma: got %v, want falsified", res.Class)
	}
	if res.Cex == nil {
		t.Fatal("falsification must carry a counterexample")
	}
}

// TestLemmaFixpointOrderIndependent: helper sets prove to a fixpoint,
// so candidate order cannot change any verdict. The set mixes the
// real alignment invariant with a falsifiable decoy in both orders.
func TestLemmaFixpointOrderIndependent(t *testing.T) {
	sys := strideSystem(t)
	target := parseA(t, strideTarget)
	align := parseA(t, strideAlign)
	decoy := parseA(t, `h2: assert property (@(posedge clk) (cnt == 'd0));`)

	for _, helpers := range [][]*sva.Assertion{{align, decoy}, {decoy, align}} {
		res, lemmas, err := NewDesign().CheckWithLemmas(sys, target, helpers, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != formal.Proven {
			t.Fatalf("got %v, want proven regardless of helper order", res.Class)
		}
		nProved := 0
		for _, lm := range lemmas {
			if lm.Class == formal.Proven {
				nProved++
			}
		}
		if nProved != 1 {
			t.Fatalf("got %d proved helpers, want exactly 1", nProved)
		}
	}
}

// TestUnboundedHelperNeverAssumed: liveness helpers only ever receive
// bounded proofs from this checker, which are unsound to assume, so
// they must be reported unproved and skipped.
func TestUnboundedHelperNeverAssumed(t *testing.T) {
	sys := strideSystem(t)
	target := parseA(t, strideTarget)
	live := parseA(t, `h: assert property (@(posedge clk) s_eventually (cnt == 'd0));`)

	res, lemmas, err := NewDesign().CheckWithLemmas(sys, target, []*sva.Assertion{live}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lemmas[0].Class == formal.Proven {
		t.Fatal("unbounded helper must never be proved/assumed")
	}
	if res.Class != formal.Undecided {
		t.Fatalf("got %v, want undecided", res.Class)
	}
}

// TestLemmaStats: the pipeline reports candidate/proved/load-bearing
// counts into the formal stats sink.
func TestLemmaStats(t *testing.T) {
	sys := strideSystem(t)
	target := parseA(t, strideTarget)
	align := parseA(t, strideAlign)
	decoy := parseA(t, `h2: assert property (@(posedge clk) (cnt == 'd0));`)

	st := &formal.Stats{}
	_, _, err := NewDesign().CheckWithLemmas(sys, target, []*sva.Assertion{align, decoy}, Options{Search: formal.Search{Stats: st}})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot().Lemma
	if snap.Candidates != 2 || snap.Proved != 1 || snap.LoadBearing != 1 {
		t.Fatalf("lemma stats: got %+v, want 2 candidates / 1 proved / 1 load-bearing", snap)
	}
}
