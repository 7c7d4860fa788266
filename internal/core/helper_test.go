package core

import (
	"strings"
	"testing"

	"fveval/internal/formal"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/mc"
)

// FuzzHelperSet judges arbitrary helper-set text against an AGR row
// twice: through a row whose verdict memo the row's golden set has
// already filled, and through a fresh row. Properties: no panic, no
// runaway (the engine's default conflict budget bounds every solve),
// and the same Outcome both ways, so no memo answer stands in for a
// question it did not decide.
func FuzzHelperSet(f *testing.F) {
	insts := helpergen.Sweep()
	models := llm.Models()
	for i, inst := range insts {
		f.Add(uint8(i), strings.Join(inst.Helpers, "\n"))
		p := llm.BuildHelperPrompt(inst)
		for s := range 2 {
			f.Add(uint8(i), llm.ExtractCode(models[(i+s)%len(models)].Generate(p, s)))
		}
	}
	opt := mc.Options{Search: formal.Search{Budget: 200000}}
	f.Fuzz(func(t *testing.T, idx uint8, snippet string) {
		inst := insts[int(idx)%len(insts)]
		warm := NewHelperRow(inst)
		JudgeHelper(inst, strings.Join(inst.Helpers, "\n"), opt, warm)
		got := JudgeHelper(inst, snippet, opt, warm)
		if want := JudgeHelper(inst, snippet, opt, nil); got != want {
			t.Fatalf("%s %q: warmed row %+v, fresh row %+v", inst.ID, snippet, got, want)
		}
	})
}
