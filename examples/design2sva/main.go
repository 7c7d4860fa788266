// Design2SVA: generate a synthetic FSM, ask a proxy model for
// assertions over its formal testbench, and prove each suggestion with
// the model checker — the end-to-end flow behind Table 5.
package main

import (
	"fmt"

	"fveval/internal/core"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/llm"
	"fveval/internal/mc"
)

func main() {
	inst := rtlgen.GenerateFSM(rtlgen.FSMParams{
		States: 4, Edges: 8, Width: 16, Complexity: 2, Seed: 42,
	})
	fmt.Println("=== generated design ===")
	fmt.Println(inst.Design)

	model := llm.ModelByName("gpt-4o")
	prompt := llm.BuildDesignPrompt(inst)
	for sample := 0; sample < 4; sample++ {
		resp := llm.ExtractCode(model.Generate(prompt, sample))
		out := core.JudgeDesign(inst, resp, mc.Options{}, nil)
		fmt.Printf("--- %s attempt %d ---\n%s\n", model.Name(), sample+1, resp)
		fmt.Printf("Syntax: %s | Functionality (is proven): %s\n\n",
			passFail(out.Syntax), passFail(out.Full))
	}
}

func passFail(b bool) string {
	if b {
		return "pass"
	}
	return "fail"
}
