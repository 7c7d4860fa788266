package helpergen_test

import (
	"strings"
	"testing"

	"fveval/internal/core"
	"fveval/internal/helpergen"
	"fveval/internal/mc"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// TestConstructionSoundness pins the dataset's defining contract for
// every sweep instance: the target is true but Unknown alone (not
// k-inductive within the checker's default bound), the golden helper
// set unlocks it, the Insufficient response is valid but does not
// unlock, and the Invalid response fails helper validity.
func TestConstructionSoundness(t *testing.T) {
	insts := helpergen.Sweep()
	if len(insts) != 18 {
		t.Fatalf("sweep size: got %d, want 18", len(insts))
	}
	for _, inst := range insts {
		merged := strings.Replace(inst.Bench, "endmodule", inst.Target+"\nendmodule", 1)
		f, err := rtl.Parse(inst.Design + "\n" + merged)
		if err != nil {
			t.Fatalf("%s: parse: %v", inst.ID, err)
		}
		sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
		if err != nil {
			t.Fatalf("%s: elaborate: %v", inst.ID, err)
		}
		alone, err := mc.CheckAssertion(sys, inst.TargetAst, mc.Options{})
		if err != nil {
			t.Fatalf("%s: target alone: %v", inst.ID, err)
		}
		if alone.Status != mc.Unknown {
			t.Errorf("%s: target alone: got %v, want unknown (hard by construction)", inst.ID, alone.Status)
		}

		if syn, valid, unlocked := core.JudgeHelper(inst, strings.Join(inst.Helpers, "\n"), mc.Options{}, nil); !syn || !valid || !unlocked {
			t.Errorf("%s: golden helpers: syn=%v valid=%v unlocked=%v, want all true", inst.ID, syn, valid, unlocked)
		}
		if syn, valid, unlocked := core.JudgeHelper(inst, inst.Insufficient, mc.Options{}, nil); !syn || !valid || unlocked {
			t.Errorf("%s: insufficient helper: syn=%v valid=%v unlocked=%v, want valid but not unlocked", inst.ID, syn, valid, unlocked)
		}
		if syn, valid, unlocked := core.JudgeHelper(inst, inst.Invalid, mc.Options{}, nil); !syn || valid || unlocked {
			t.Errorf("%s: invalid helper: syn=%v valid=%v unlocked=%v, want syntax-only", inst.ID, syn, valid, unlocked)
		}
	}
}

// TestGoldenOrderIndependent: the prove-then-assume fixpoint makes
// helper order irrelevant, so a reversed golden set judges the same.
func TestGoldenOrderIndependent(t *testing.T) {
	for _, inst := range helpergen.Sweep() {
		if len(inst.Helpers) < 2 {
			continue
		}
		rev := make([]string, len(inst.Helpers))
		for i, h := range inst.Helpers {
			rev[len(rev)-1-i] = h
		}
		if syn, valid, unlocked := core.JudgeHelper(inst, strings.Join(rev, "\n"), mc.Options{}, nil); !syn || !valid || !unlocked {
			t.Errorf("%s: reversed golden helpers: syn=%v valid=%v unlocked=%v, want all true", inst.ID, syn, valid, unlocked)
		}
	}
}

// TestSweepDeterministic: Sweep is cached and deterministic — the
// same slice on every call, and stable well-formed instances.
func TestSweepDeterministic(t *testing.T) {
	a, b := helpergen.Sweep(), helpergen.Sweep()
	if &a[0] != &b[0] {
		t.Fatal("Sweep must return the cached slice")
	}
	seen := map[string]bool{}
	for _, inst := range a {
		if seen[inst.ID] {
			t.Fatalf("duplicate instance ID %s", inst.ID)
		}
		seen[inst.ID] = true
		if inst.TargetAst == nil {
			t.Fatalf("%s: missing parsed target", inst.ID)
		}
		if _, err := sva.ParseAssertion(inst.Invalid); err != nil {
			t.Fatalf("%s: Invalid response must still parse: %v", inst.ID, err)
		}
		if len(inst.Helpers) == 0 || inst.Insufficient == "" {
			t.Fatalf("%s: incomplete response pools", inst.ID)
		}
	}
}
