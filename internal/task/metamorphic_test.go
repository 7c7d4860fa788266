package task

import (
	"context"
	"maps"
	"testing"

	"fveval/internal/engine"
)

// TestSyntaxIgnoresSearchOptions is a metamorphic check of the judges:
// whether model text compiles cannot depend on how hard the formal
// backend searches. Tables 1–5 and AGR run at full size at defaults
// and under each option that shapes the search — a conflict budget of
// 1, a bound cap of 4, the prefilter off, three workers — and every
// row's Syntax and SyntaxK must equal the default run's. The budget
// must move some FuncK value, or the runs exercised no exhausted
// budget and the check shows nothing.
func TestSyntaxIgnoresSearchOptions(t *testing.T) {
	tasks := []string{"nl2sva-human", "nl2sva-human-passk", "nl2sva-machine", "nl2sva-machine-passk", "design2sva", "agr"}
	variants := []struct {
		name string
		cfg  engine.Config
	}{
		{"budget 1", engine.Config{Budget: 1}},
		{"maxbound 4", engine.Config{MaxBound: 4}},
		{"simpatterns 0", engine.Config{NoSim: true}},
		{"workers 3", engine.Config{Workers: 3}},
	}
	ctx := context.Background()
	run := func(name string, cfg engine.Config) *Report {
		r, err := NewEngine(cfg).Run(ctx, Request{Task: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r.Report
	}
	budgetMovedFunc := false
	for _, name := range tasks {
		want := run(name, engine.Config{})
		for _, v := range variants {
			got := run(name, v.cfg)
			for g, wg := range want.Groups {
				for r, wr := range wg.Rows {
					gr := got.Groups[g].Rows[r]
					if gr.Syntax != wr.Syntax || !maps.Equal(gr.SyntaxK, wr.SyntaxK) {
						t.Errorf("%s %s, %s under %s: syntax %v %v, default %v %v",
							name, wg.Name, wr.Model, v.name, gr.Syntax, gr.SyntaxK, wr.Syntax, wr.SyntaxK)
					}
					if v.cfg.Budget > 0 && !maps.Equal(gr.FuncK, wr.FuncK) {
						budgetMovedFunc = true
					}
				}
			}
		}
	}
	if !budgetMovedFunc {
		t.Fatal("a budget of 1 moved no FuncK value: no query ran out of budget")
	}
}
