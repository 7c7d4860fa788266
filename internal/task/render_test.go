package task

import (
	"strings"
	"testing"

	"fveval/internal/core"
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
