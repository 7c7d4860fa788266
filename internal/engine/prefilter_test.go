package engine

import (
	"context"
	"fmt"
	"testing"

	"fveval/internal/llm"
)

// TestPrefilterDoesNotChangeTables pins the refute-only contract at
// the engine level: with the simulation prefilter at its default, at a
// high pattern count, and fully disabled, every folded row and every
// per-instance outcome is identical — the prefilter may only ever
// replace a SAT call, never change its answer.
func TestPrefilterDoesNotChangeTables(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o"), llm.ModelByName("gemini-1.5-flash")}

	variants := []Config{
		{Samples: 3},                   // default prefilter (128 patterns)
		{Samples: 3, SimPatterns: 512}, // heavier prefilter
		{Samples: 3, NoSim: true},      // pure SAT
	}
	ctx := context.Background()
	var grids []*Grid
	for _, cfg := range variants {
		grids = append(grids, must(t)(New(cfg).MachineGrid(ctx, models, 3, 12, true, 0, nil)))
	}
	for i := 1; i < len(grids); i++ {
		sameGrids(t, fmt.Sprintf("prefilter variant %d", i), grids[0], grids[i], []int{1, 3})
	}

	// Outcome-level equality on the greedy machine flow and the mc-backed
	// design flow.
	eOn := New(Config{Limit: 12})
	eOff := New(Config{Limit: 12, NoSim: true})
	sameGrids(t, "machine greedy",
		must(t)(eOn.MachineGrid(ctx, models, 0, 12, false, 0, nil)),
		must(t)(eOff.MachineGrid(ctx, models, 0, 12, false, 0, nil)), nil)
	if eOn.FormalStats().Sim.Patterns == 0 {
		t.Fatal("prefilter engine simulated nothing; the comparison is vacuous")
	}
	if eOff.FormalStats().Sim.Patterns != 0 {
		t.Fatalf("NoSim engine still simulated: %+v", eOff.FormalStats().Sim)
	}

	dOn := New(Config{Limit: 2, Samples: 2})
	dOff := New(Config{Limit: 2, Samples: 2, NoSim: true})
	designModels := llm.DesignModels()[:2]
	sameGrids(t, "design fsm",
		must(t)(dOn.DesignGrid(ctx, designModels, "fsm", nil)),
		must(t)(dOff.DesignGrid(ctx, designModels, "fsm", nil)), []int{1, 2})
}

// TestPrefilterBankSurvivesReconfigure checks the pattern bank lives
// in the shareable pool: a derived engine keeps refuting from the
// base engine's learned counterexamples.
func TestPrefilterBankSurvivesReconfigure(t *testing.T) {
	base := New(Config{Limit: 8})
	derived, err := base.Reconfigure(Config{Limit: 8, MaxBound: 12})
	if err != nil {
		t.Fatal(err)
	}
	if base.st.bank != derived.st.bank {
		t.Fatal("Reconfigure did not share the pattern bank")
	}
	detached, err := base.Reconfigure(Config{Limit: 8, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.st.bank == detached.st.bank {
		t.Fatal("NoCache reconfigure should detach the pool (bank included)")
	}
}
