package core

import (
	"reflect"
	"strings"
	"testing"

	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/rtl"
)

// sameParse checks the split design/bench parse against the
// whole-file parse it stands in for: both fail, or both yield the same
// modules.
func sameParse(t *testing.T, id, design, bench, snippet string) {
	t.Helper()
	got, gerr := parseDesignHalf(design).parse(design, bench, snippet)
	want, werr := rtl.Parse(design + "\n" + insertBeforeEndmodule(bench, snippet))
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: split parse error %v, whole-file parse error %v\n%s", id, gerr, werr, snippet)
	}
	if werr == nil && !reflect.DeepEqual(got.Modules, want.Modules) {
		t.Fatalf("%s: split parse differs from the whole-file parse\n%s", id, snippet)
	}
}

// TestSplitParseMatchesWholeFile runs every Design2SVA and AGR
// instance with every distinct proxy candidate through the split
// parse.
func TestSplitParseMatchesWholeFile(t *testing.T) {
	candidates := func(models []llm.Model, p *llm.Prompt) map[string]bool {
		out := map[string]bool{}
		for _, m := range models {
			for s := 0; s < 5; s++ {
				out[llm.ExtractCode(m.Generate(p, s))] = true
			}
		}
		return out
	}
	for _, kind := range []string{"pipeline", "fsm"} {
		for _, inst := range rtlgen.Sweep96(kind) {
			for code := range candidates(llm.DesignModels(), llm.BuildDesignPrompt(inst)) {
				sameParse(t, inst.ID, inst.Design, inst.Bench, code)
			}
		}
	}
	for _, inst := range helpergen.Sweep() {
		// The AGR judge splices the fixed target; the candidates are
		// parsed as helper sets, not as RTL.
		sameParse(t, inst.ID, inst.Design, inst.Bench, inst.Target)
	}
}

// TestSplitParseFallsBack covers the cases where parsing the design on
// its own would expand a macro differently from the whole file.
func TestSplitParseFallsBack(t *testing.T) {
	inst := rtlgen.Sweep96("pipeline")[0]
	a := "assert property (@(posedge clk) 1'b1);"
	sameParse(t, "plain", inst.Design, inst.Bench, a)

	// The bench redefines the design's WIDTH: over the whole file the
	// last definition wins, the design's ports included.
	redefined := strings.Replace(inst.Bench, "`define WIDTH ", "`define WIDTH 1", 1)
	if redefined == inst.Bench {
		t.Fatal("bench does not define WIDTH")
	}
	sameParse(t, "redefined", inst.Design, redefined, a)
	whole, err := rtl.Parse(inst.Design + "\n" + insertBeforeEndmodule(redefined, a))
	if err != nil {
		t.Fatal(err)
	}
	own, err := rtl.Parse(inst.Design)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(whole.Modules[:len(own.Modules)], own.Modules) {
		t.Fatal("redefinition does not reach the design: the case tests nothing")
	}

	// A snippet carrying a directive.
	sameParse(t, "directive", inst.Design, inst.Bench, "`define WIDTH 2\n"+a)
	// A design macro only the bench defines.
	sameParse(t, "late", "`define LATE 1\n"+strings.Replace(inst.Design, "`WIDTH", "`LATE_W", 1), "`define LATE_W 4\n"+inst.Bench, a)
}
