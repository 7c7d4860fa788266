package task

import (
	"context"
	"strings"
	"testing"

	"fveval/internal/core"
	"fveval/internal/engine"
)

func TestFiguresRender(t *testing.T) {
	f2, err := renderFigure2(Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f2, "Figure 2") {
		t.Fatalf("figure 2 malformed")
	}
	if f3, err := renderFigure3(Params{Count: 30}, nil); err != nil || !strings.Contains(f3, "Figure 3") {
		t.Fatalf("figure 3 malformed: %v", err)
	}
	if f4, err := renderFigure4(Params{}, nil); err != nil || !strings.Contains(f4, "pipeline") {
		t.Fatalf("figure 4 malformed: %v", err)
	}
	// Figure 6 is a pure formatter over greedy rows (the engine runs
	// the evaluation); feed it a synthetic row.
	row := core.Aggregate("toy-model", []core.Outcome{
		{Full: true, BLEU: 0.9},
		{Full: false, BLEU: 0.8},
		{Full: true, BLEU: 0.2},
	})
	f6 := renderFigure6([]core.Row{row})
	if !strings.Contains(f6, "corr(BLEU, Func)") || !strings.Contains(f6, "toy-model") {
		t.Fatalf("figure 6 malformed:\n%s", f6)
	}
}

func TestTable6(t *testing.T) {
	out, err := renderTable6(Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1R1W FIFO", "Arbiter", "79"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 6 missing %q:\n%s", want, out)
		}
	}
}

// TestRenderNonDefaultRuns renders runs whose cut-offs, sample count
// or group set differ from the paper's, and demands the layout say
// what was computed.
func TestRenderNonDefaultRuns(t *testing.T) {
	e := NewEngine(engine.Config{Workers: 1})
	for _, c := range []struct {
		req  Request
		want []string
	}{
		{Request{
			Task:    "nl2sva-human-passk",
			Params:  Params{Models: []string{"gpt-4o"}, Ks: []int{1, 2}},
			Options: engine.Config{Limit: 4, Samples: 2, Workers: 1},
		}, []string{
			"Table 2: NL2SVA-Human pass@k (n=2 samples)\n",
			"Model               Syntax@2  Func.@2 Partial.@2\n",
			"gpt-4o                 1.000    0.750      1.000\n",
		}},
		{Request{
			Task:    "design2sva",
			Params:  Params{Models: []string{"gpt-4o"}, Ks: []int{1, 2}, Kinds: []string{"fsm"}},
			Options: engine.Config{Limit: 2, Samples: 2, Workers: 1},
		}, []string{"Model              |  F:Syn@1  F:Syn@2  F:Fn@1  F:Fn@2\n"}},
		{Request{
			Task:   "nl2sva-machine",
			Params: Params{Models: []string{"gpt-4o"}, Shots: []int{0, 1, 3}, Count: 4},
		}, []string{
			"Table 3: NL2SVA-Machine (0-shot vs 1-shot vs 3-shot)\n",
			"BLEU(0) |  Syn(1)  Fun(1)  Par(1) BLEU(1) |  Syn(3)",
		}},
	} {
		run, err := e.Run(context.Background(), c.req)
		if err != nil {
			t.Fatal(err)
		}
		out := run.Report.Render()
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s render lacks %q:\n%s", c.req.Task, want, out)
			}
		}
	}
}
