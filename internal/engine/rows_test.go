package engine

import (
	"context"
	"sync"
	"testing"

	"fveval/internal/core"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/mc"
)

// TestRowsJudgeEachSnippetOnce checks row scheduling against the
// memo: whatever the worker count, the Design2SVA and AGR grids invoke
// their judge exactly once per distinct (instance, snippet) key — no
// two workers ever race to judge the same response.
func TestRowsJudgeEachSnippetOnce(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	count := func(id, code string) {
		mu.Lock()
		calls[id+"\x00"+code]++
		mu.Unlock()
	}
	design, helper := judgeDesign, judgeHelper
	t.Cleanup(func() { judgeDesign, judgeHelper = design, helper })
	judgeDesign = func(inst *rtlgen.Instance, code string, opt mc.Options, row *core.DesignRow) core.Outcome {
		count(inst.ID, code)
		return design(inst, code, opt, row)
	}
	judgeHelper = func(inst *helpergen.Instance, code string, opt mc.Options, row *core.DesignRow) core.Outcome {
		count(inst.ID, code)
		return helper(inst, code, opt, row)
	}

	models := llm.DesignModels()
	for _, workers := range []int{1, 2, 4} {
		clear(calls)
		e := New(Config{Limit: 6, Workers: workers})
		if _, err := e.DesignGrid(context.Background(), models, "pipeline", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.HelperGrid(context.Background(), models, nil); err != nil {
			t.Fatal(err)
		}
		if len(calls) == 0 {
			t.Fatal("no judgments recorded")
		}
		for key, n := range calls {
			if n != 1 {
				t.Errorf("workers=%d: %q judged %d times", workers, key, n)
			}
		}
	}
}

// TestRowsKeepVerdicts pins row-scheduled judging to the verdicts of
// judging every job in isolation, as a NoCache run would.
func TestRowsKeepVerdicts(t *testing.T) {
	models := llm.DesignModels()
	rows, err := New(Config{Limit: 8, Workers: 2}).DesignGrid(context.Background(), models, "fsm", nil)
	if err != nil {
		t.Fatal(err)
	}
	insts := rtlgen.Sweep96("fsm")[:8]
	for m, model := range models {
		for i, inst := range insts {
			p := llm.BuildDesignPrompt(inst)
			for s := 0; s < rows.Samples; s++ {
				code := llm.ExtractCode(model.Generate(p, s))
				want := core.JudgeDesign(inst, code, mc.Options{}, nil)
				got := rows.Outcomes[m][i*rows.Samples+s]
				if got.Syntax != want.Syntax || got.Full != want.Full {
					t.Errorf("%s %s sample %d: row verdict (%v, %v), isolated (%v, %v)", model.Name(), inst.ID, s, got.Syntax, got.Full, want.Syntax, want.Full)
				}
			}
		}
	}
}

// TestRowSessionsDeterministic runs the Design2SVA and AGR grids twice
// on fresh engines at Workers=1. Row order is the order in which a
// row's checks share their model-checking sessions, so the formal
// counters (wall times aside) must repeat exactly.
func TestRowSessionsDeterministic(t *testing.T) {
	run := func() formal.Snapshot {
		e := New(Config{Limit: 12, Workers: 1})
		for _, kind := range []string{"pipeline", "fsm"} {
			if _, err := e.DesignGrid(context.Background(), llm.DesignModels(), kind, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.HelperGrid(context.Background(), llm.Models(), nil); err != nil {
			t.Fatal(err)
		}
		s := e.FormalStats()
		s.SolveWallNS, s.SolveWallHist = 0, [formal.SolveWallBucketCount]int64{}
		return s
	}
	first, second := run(), run()
	if first.Queries == 0 || first.Encoded == 0 {
		t.Fatalf("no model checking recorded: %+v", first)
	}
	if first != second {
		t.Errorf("formal counters differ between identical runs:\n first  %+v\n second %+v", first, second)
	}
}
