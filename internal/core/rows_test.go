package core

import (
	"slices"
	"testing"

	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/mc"
	"fveval/internal/sva"
)

// Row differentials: judging an instance row's candidates in row order
// through one DesignRow (with the simulation prefilter and a shared
// pattern bank, as the engine runs them) must give every check the
// verdict a fresh check of the whole-file system gives it.

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
	return mc.Options{Search: formal.Search{SimPatterns: 128, Bank: formal.NewBank(0)}}
}

func TestDesignRowsMatchFreshChecks(t *testing.T) {
	models := llm.DesignModels()
	checks := 0
	for _, kind := range []string{"pipeline", "fsm"} {
		insts := rtlgen.Sweep96(kind)
		for i := 0; i < len(insts); i += rowStride() {
			inst := insts[i]
			row, opt := NewDesignRow(inst), sharedOptions()
			for _, code := range rowResponses(models, llm.BuildDesignPrompt(inst)) {
				sys, err := row.system(code)
				if err != nil {
					continue
				}
				whole, err := row.wholeFile(code)
				if err != nil {
					t.Fatalf("%s: the overlay elaborates, the whole file fails: %v\n%s", inst.ID, err, code)
				}
				for i, a := range sys.Asserts {
					if sva.Validate(a) != nil {
						continue
					}
					got, gotErr := row.mc.CheckAssertion(sys, a, opt)
					want, wantErr := mc.NewDesign().CheckAssertion(whole, whole.Asserts[i], mc.Options{})
					checks++
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s %s: shared error %v, fresh error %v", inst.ID, a, gotErr, wantErr)
					}
					if got.Verdict != want.Verdict {
						t.Fatalf("%s %s: shared (%v, depth %d, reason %v), fresh (%v, depth %d, reason %v)",
							inst.ID, a, got.Class, got.Depth, got.Reason, want.Class, want.Depth, want.Reason)
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
		row, opt := NewHelperRow(inst), sharedOptions()
		for _, code := range rowResponses(models, llm.BuildHelperPrompt(inst)) {
			helpers, ok := parseHelperSet(code)
			if !ok {
				continue
			}
			sys, err := row.system("")
			if err != nil {
				t.Fatal(err)
			}
			whole, err := row.wholeFile("")
			if err != nil {
				t.Fatal(err)
			}
			got, gotLemmas, gotErr := row.mc.CheckWithLemmas(sys, inst.TargetAst, helpers, opt)
			want, wantLemmas, wantErr := mc.NewDesign().CheckWithLemmas(whole, inst.TargetAst, helpers, mc.Options{})
			checks++
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: shared error %v, fresh error %v", inst.ID, gotErr, wantErr)
			}
			if got.Verdict != want.Verdict {
				t.Fatalf("%s %q: shared target (%v, depth %d), fresh (%v, depth %d)", inst.ID, code, got.Class, got.Depth, want.Class, want.Depth)
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
