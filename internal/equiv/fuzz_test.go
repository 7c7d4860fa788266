package equiv

import (
	"errors"
	"testing"

	"fveval/internal/formal"
	"fveval/internal/gen/svagen"
	"fveval/internal/ltl"
	"fveval/internal/sat"
	"fveval/internal/sva"
)

// fuzzMaxDepth bounds the property window of fuzzed assertions: the
// lasso unroll grows linearly with it, so a large delay constant would
// spend the fuzzing time on construction rather than on the checker.
const fuzzMaxDepth = 24

// FuzzCheckDifferential runs arbitrary assertion pairs under the
// NL2SVA-Machine signal environment through Check (prefilter on) and
// the one-shot oracle. Whenever both sides parse and pass the syntax
// check, the verdicts must agree (errors must agree too, except budget
// exhaustion, where the ramp and the one-shot query spend conflicts
// differently), and every witness Check returns must satisfy one
// assertion and violate the other when replayed through LassoEval.
// The corpus starts from NL2SVA-Machine references paired with each
// other and with themselves.
func FuzzCheckDifferential(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		a := svagen.Generate(seed).Reference.String()
		f.Add(a, svagen.Generate(seed+1000).Reference.String())
		f.Add(a, a)
	}
	sigs := DefaultMachineSigs()
	f.Fuzz(func(t *testing.T, srcA, srcB string) {
		a, b := fuzzAssertion(srcA), fuzzAssertion(srcB)
		if a == nil || b == nil {
			return
		}
		opt := Options{Search: formal.Search{Budget: 20000, SimPatterns: 64}}
		got, err1 := Check(a, b, sigs, opt)
		want, err2 := oneShotCheck(a, b, sigs, opt)
		if errors.Is(err1, sat.ErrBudget) || errors.Is(err2, sat.ErrBudget) {
			return
		}
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error disagreement: ramp=%v oracle=%v\nA: %s\nB: %s", err1, err2, a, b)
		}
		if err1 != nil {
			return
		}
		if got.Verdict != want.Verdict {
			t.Fatalf("verdict disagreement: ramp=%v oracle=%v\nA: %s\nB: %s", got.Verdict, want.Verdict, a, b)
		}
		if got.AB != nil {
			replayWitness(t, a, b, got.AB, sigs)
		}
		if got.BA != nil {
			replayWitness(t, b, a, got.BA, sigs)
		}
	})
}

// fuzzAssertion parses and syntax-checks src, or returns nil.
func fuzzAssertion(src string) *sva.Assertion {
	a, err := sva.ParseAssertion(src)
	if err != nil || sva.Validate(a) != nil {
		return nil
	}
	if f, err := ltl.LowerAssertion(a); err == nil && ltl.Depth(f) > fuzzMaxDepth {
		return nil
	}
	return a
}
