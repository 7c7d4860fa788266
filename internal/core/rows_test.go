package core

import (
	"slices"
	"testing"

	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/mc"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// Row differentials: judging an instance row's candidates in row order
// through one mc.Design (with the simulation prefilter and a shared
// pattern bank, as the engine runs them) must give every check the
// verdict a fresh check gives it.

const rowSamples = 5

// rowStride samples every third instance under -short.
func rowStride() int {
	if testing.Short() {
		return 3
	}
	return 1
}

// rowResponses returns a row's distinct extracted responses in the
// engine's job order: model by model, sample by sample.
func rowResponses(models []llm.Model, p *llm.Prompt) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range models {
		for s := 0; s < rowSamples; s++ {
			code := llm.ExtractCode(m.Generate(p, s))
			if !seen[code] {
				seen[code] = true
				out = append(out, code)
			}
		}
	}
	return out
}

func sharedOptions() mc.Options {
	return mc.Options{SimPatterns: 128, Bank: formal.NewBank(0)}
}

func TestDesignRowsMatchFreshChecks(t *testing.T) {
	models := llm.DesignModels()
	checks := 0
	for _, kind := range []string{"pipeline", "fsm"} {
		insts := rtlgen.Sweep96(kind)
		for i := 0; i < len(insts); i += rowStride() {
			inst := insts[i]
			design, opt := mc.NewDesign(), sharedOptions()
			for _, code := range rowResponses(models, llm.BuildDesignPrompt(inst)) {
				f, err := parseDesignBench(inst.Design, inst.Bench, code)
				if err != nil {
					continue
				}
				sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
				if err != nil {
					continue
				}
				for _, a := range sys.Asserts {
					if sva.Validate(a) != nil {
						continue
					}
					got, gotErr := design.CheckAssertion(sys, a, opt)
					want, wantErr := mc.CheckAssertion(sys, a, mc.Options{})
					checks++
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s %s: shared error %v, fresh error %v", inst.ID, a, gotErr, wantErr)
					}
					if got.Status != want.Status || got.Depth != want.Depth || got.Bounded != want.Bounded {
						t.Fatalf("%s %s: shared (%v, depth %d, bounded %v), fresh (%v, depth %d, bounded %v)",
							inst.ID, a, got.Status, got.Depth, got.Bounded, want.Status, want.Depth, want.Bounded)
					}
				}
			}
		}
	}
	if checks == 0 {
		t.Fatal("no candidate reached the model checker")
	}
	t.Logf("%d assertion checks matched", checks)
}

func TestHelperRowsMatchFreshChecks(t *testing.T) {
	models := llm.Models()
	checks := 0
	for _, inst := range helpergen.Sweep() {
		design, opt := mc.NewDesign(), sharedOptions()
		for _, code := range rowResponses(models, llm.BuildHelperPrompt(inst)) {
			helpers, ok := parseHelperSet(code)
			if !ok {
				continue
			}
			f, err := parseDesignBench(inst.Design, inst.Bench, inst.Target)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, gotLemmas, gotErr := design.CheckWithLemmas(sys, inst.TargetAst, helpers, opt)
			want, wantLemmas, wantErr := mc.CheckWithLemmas(sys, inst.TargetAst, helpers, mc.Options{})
			checks++
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: shared error %v, fresh error %v", inst.ID, gotErr, wantErr)
			}
			if got.Status != want.Status || got.Depth != want.Depth || got.Bounded != want.Bounded {
				t.Fatalf("%s %q: shared target (%v, depth %d), fresh (%v, depth %d)", inst.ID, code, got.Status, got.Depth, want.Status, want.Depth)
			}
			if !slices.Equal(gotLemmas, wantLemmas) {
				t.Fatalf("%s %q: shared lemmas %+v, fresh %+v", inst.ID, code, gotLemmas, wantLemmas)
			}
		}
	}
	if checks == 0 {
		t.Fatal("no helper set reached the model checker")
	}
	t.Logf("%d helper sets matched", checks)
}
