package task

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fveval/internal/core"
	"fveval/internal/engine"
	"fveval/internal/llm"
)

func TestRegistryCoversTablesAndFigures(t *testing.T) {
	specs := Tasks()
	if len(specs) < 10 {
		t.Fatalf("registry too small: %d tasks", len(specs))
	}
	for table := 1; table <= 6; table++ {
		if _, err := ByTable(table); err != nil {
			t.Errorf("table %d unreachable: %v", table, err)
		}
	}
	for _, fig := range []int{2, 3, 4, 6} {
		if _, err := ByFigure(fig); err != nil {
			t.Errorf("figure %d unreachable: %v", fig, err)
		}
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Title == "" || s.Kind == "" || (s.run == nil && s.text == nil) {
			t.Errorf("incomplete spec %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate task name %q", s.Name)
		}
		seen[s.Name] = true
		if _, err := Lookup(s.Name); err != nil {
			t.Errorf("listed task %q not found: %v", s.Name, err)
		}
	}
	if _, err := Lookup("no-such-task"); err == nil || !strings.Contains(err.Error(), "nl2sva-human") {
		t.Errorf("unknown-task error must list known names, got: %v", err)
	}
}

func TestRequestValidation(t *testing.T) {
	e := NewEngine(engine.Config{Limit: 2})
	ctx := context.Background()
	bad := []Request{
		{Task: "no-such-task"},
		{Task: "nl2sva-human", Params: Params{Kinds: []string{"fsm"}}},    // param not accepted
		{Task: "nl2sva-human", Params: Params{Models: []string{"gpt-5"}}}, // unknown model
		{Task: "nl2sva-human-passk", Params: Params{Ks: []int{0}}},        // k out of range
		{Task: "nl2sva-machine", Params: Params{Shots: []int{-1}}},        // negative shots
		{Task: "nl2sva-machine", Params: Params{Count: -3}},               // negative count
		{Task: "nl2sva-machine", Params: Params{Count: maxMachineCount + 1}},
		{Task: "design2sva", Params: Params{Kinds: []string{"chipmunk"}}}, // unknown kind
		{Task: "nl2sva-human", Options: engine.Config{Samples: -1}},       // invalid options
		{Task: "nl2sva-human", Options: engine.Config{Workers: -2}},
	}
	for _, req := range bad {
		if _, err := e.Run(ctx, req); err == nil {
			t.Errorf("request %+v accepted", req)
		}
	}
}

func TestRunStreamsEventsAndStats(t *testing.T) {
	e := NewEngine(engine.Config{})
	var events []Event
	run, err := e.Run(context.Background(), Request{
		Task:     "nl2sva-human",
		Params:   Params{Models: []string{"gpt-4o", "llama-3-8b"}},
		Options:  engine.Config{Limit: 5, Workers: 3},
		Progress: func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 5; len(events) != want || run.Stats.Jobs != want {
		t.Fatalf("events %d, stats jobs %d, want %d", len(events), run.Stats.Jobs, want)
	}
	for i, ev := range events {
		if ev.Task != "nl2sva-human" || ev.Done != i+1 || ev.Total != 10 || ev.Model == "" || ev.Instance == "" {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
	}
	if run.Report == nil || len(run.Report.Groups) != 1 || len(run.Report.Groups[0].Rows) != 2 {
		t.Fatalf("report malformed: %+v", run.Report)
	}
	// the echoed request must carry the resolved params and options
	if len(run.Request.Params.Models) != 2 || run.Request.Options.Limit != 5 {
		t.Fatalf("request echo not resolved: %+v", run.Request)
	}
	if run.Stats.Cache.Misses == 0 {
		t.Fatalf("run recorded no formal activity: %+v", run.Stats)
	}
}

func TestRunCancellation(t *testing.T) {
	e := NewEngine(engine.Config{Limit: 12})
	ctx, cancel := context.WithCancel(context.Background())
	var n int
	_, err := e.Run(ctx, Request{
		Task:   "nl2sva-human",
		Params: Params{Models: []string{"gpt-4o"}},
		Progress: func(ev Event) {
			n++
			if n == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	cancel()
}

// TestMultiGroupTasks checks the per-group event labelling and group
// structure of the shots and design tasks.
func TestMultiGroupTasks(t *testing.T) {
	e := NewEngine(engine.Config{Limit: 3, Samples: 2})
	groupsSeen := map[string]bool{}
	run, err := e.Run(context.Background(), Request{
		Task:     "nl2sva-machine",
		Params:   Params{Models: []string{"gpt-4o"}, Count: 5},
		Progress: func(ev Event) { groupsSeen[ev.Group] = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Report.Groups) != 2 || run.Report.Groups[0].Name != "0-shot" || run.Report.Groups[1].Name != "3-shot" {
		t.Fatalf("groups malformed: %+v", run.Report.Groups)
	}
	if !groupsSeen["0-shot"] || !groupsSeen["3-shot"] {
		t.Fatalf("events missed a group: %v", groupsSeen)
	}

	run, err = e.Run(context.Background(), Request{
		Task:   "design2sva",
		Params: Params{Models: []string{"gpt-4o"}, Kinds: []string{"fsm"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Report.Groups) != 1 || run.Report.Groups[0].Name != "fsm" {
		t.Fatalf("design groups malformed: %+v", run.Report.Groups)
	}
	if rep := run.Report.Groups[0].DesignReports(); len(rep) != 1 || rep[0].Kind != "fsm" {
		t.Fatalf("design projection malformed: %+v", rep)
	}
}

// TestRenderMatchesLegacyEntryPoints demands byte-identical table
// output between registry runs and the engine's grids folded and
// rendered by hand (grid → Grid.*Reports → core.FormatTableN /
// core.Figure6), for every table and figure.
func TestRenderMatchesLegacyEntryPoints(t *testing.T) {
	ctx := context.Background()
	cfg := engine.Config{Limit: 4, Samples: 2, Workers: 2}
	e := NewEngine(cfg)
	models := []string{"gpt-4o", "llama-3.1-70b"}
	fleet := resolveModels(models)

	runTask := func(name string, p Params) string {
		t.Helper()
		run, err := e.Run(ctx, Request{Task: name, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		return run.Report.Render()
	}
	grid := func(g *engine.Grid, err error) *engine.Grid {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	// Table 1
	legacy1 := grid(engine.New(cfg).HumanGrid(ctx, fleet, false, nil)).ModelReports()
	if got, want := runTask("nl2sva-human", Params{Models: models}), core.FormatTable1(legacy1); got != want {
		t.Errorf("table 1 diverged:\n--- registry ---\n%s--- legacy ---\n%s", got, want)
	}

	// Table 2
	legacy2 := grid(engine.New(cfg).HumanGrid(ctx, fleet, true, nil)).PassKReports([]int{1, 3, 5})
	if got, want := runTask("nl2sva-human-passk", Params{Models: models}), core.FormatTable2(legacy2); got != want {
		t.Errorf("table 2 diverged:\n--- registry ---\n%s--- legacy ---\n%s", got, want)
	}

	// Table 3
	zero := grid(engine.New(cfg).MachineGrid(ctx, fleet, 0, 8, false, nil)).ModelReports()
	three := grid(engine.New(cfg).MachineGrid(ctx, fleet, 3, 8, false, nil)).ModelReports()
	if got, want := runTask("nl2sva-machine", Params{Models: models, Count: 8}), core.FormatTable3(zero, three); got != want {
		t.Errorf("table 3 diverged:\n--- registry ---\n%s--- legacy ---\n%s", got, want)
	}

	// Table 4
	legacy4 := grid(engine.New(cfg).MachineGrid(ctx, fleet, 3, 8, true, nil)).PassKReports([]int{1, 3, 5})
	if got, want := runTask("nl2sva-machine-passk", Params{Models: models, Count: 8}), core.FormatTable4(legacy4); got != want {
		t.Errorf("table 4 diverged:\n--- registry ---\n%s--- legacy ---\n%s", got, want)
	}

	// Table 5
	pipe := grid(engine.New(cfg).DesignGrid(ctx, fleet, "pipeline", nil)).DesignReports("pipeline", []int{1, 5})
	fsm := grid(engine.New(cfg).DesignGrid(ctx, fleet, "fsm", nil)).DesignReports("fsm", []int{1, 5})
	if got, want := runTask("design2sva", Params{Models: models}), core.FormatTable5(pipe, fsm); got != want {
		t.Errorf("table 5 diverged:\n--- registry ---\n%s--- legacy ---\n%s", got, want)
	}

	// Table 6 and the figures
	if got, want := runTask("dataset-stats", Params{}), core.FormatTable6(); got != want {
		t.Errorf("table 6 diverged")
	}
	fig2, err := core.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if got := runTask("human-token-lengths", Params{}); got != fig2 {
		t.Errorf("figure 2 diverged")
	}
	if got, want := runTask("machine-token-lengths", Params{Count: 30}), core.Figure3(30); got != want {
		t.Errorf("figure 3 diverged")
	}
	if got, want := runTask("design-token-lengths", Params{}), core.Figure4(); got != want {
		t.Errorf("figure 4 diverged")
	}
	legacyFig6 := core.Figure6(grid(engine.New(cfg).HumanGrid(ctx, resolveModels([]string{"gpt-4o"}), false, nil)).ModelReports())
	if got := runTask("bleu-correlation", Params{Models: []string{"gpt-4o"}}); got != legacyFig6 {
		t.Errorf("figure 6 diverged:\n--- registry ---\n%s--- legacy ---\n%s", got, legacyFig6)
	}
}

// TestSharedEnginePoolsAcrossRuns checks that two runs through one
// task engine share the memo pool: the duplicate second run must not
// add cache misses.
func TestSharedEnginePoolsAcrossRuns(t *testing.T) {
	e := NewEngine(engine.Config{Limit: 6})
	req := Request{Task: "nl2sva-human", Params: Params{Models: []string{"gpt-4o"}}}
	first, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Cache.Misses == 0 {
		t.Fatalf("first run saw no formal work: %+v", first.Stats)
	}
	if second.Stats.Cache.Misses != 0 {
		t.Fatalf("second run re-solved %d queries despite the shared pool", second.Stats.Cache.Misses)
	}
}

func TestDefaultModelSetsResolve(t *testing.T) {
	for _, s := range Tasks() {
		for _, m := range s.Defaults.Models {
			if llm.ModelByName(m) == nil {
				t.Errorf("task %s: default model %q unresolvable", s.Name, m)
			}
		}
	}
}
