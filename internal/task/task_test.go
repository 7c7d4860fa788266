package task

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

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
		Params: Params{Models: []string{"gpt-4o"}, Ks: []int{1, 2}, Kinds: []string{"fsm"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Report.Groups) != 1 || run.Report.Groups[0].Name != "fsm" {
		t.Fatalf("design groups malformed: %+v", run.Report.Groups)
	}
	// Design rows carry pass@k for syntax and proof only: Design2SVA
	// has no partial-equivalence notion.
	if rows := run.Report.Groups[0].Rows; len(rows) != 1 || rows[0].Samples != 2 ||
		len(rows[0].FuncK) != 2 || rows[0].PartialK != nil {
		t.Fatalf("design rows malformed: %+v", rows)
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

// TestCutOffsAgainstSamples pins the pass@k cut-off contract: pass@k
// is defined only for k <= n, so an explicit cut-off above the samples
// drawn is refused (by Validate against the request's own options, and
// by Run against the engine's), while default cut-offs above n are
// dropped from the resolved parameters the report echoes.
func TestCutOffsAgainstSamples(t *testing.T) {
	over := Request{Task: "nl2sva-human-passk", Params: Params{Ks: []int{1, 5}}}
	named := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "k=5") && strings.Contains(err.Error(), "n=3")
	}
	withOpts := over
	withOpts.Options = engine.Config{Samples: 3}
	if err := withOpts.Validate(); !named(err) {
		t.Errorf("Validate accepted ks [1 5] over 3 samples, or did not name k and n: %v", err)
	}
	if _, err := withOpts.Canonical(); !named(err) {
		t.Errorf("Canonical accepted ks [1 5] over 3 samples: %v", err)
	}
	if err := over.Validate(); err != nil {
		t.Errorf("zero options draw 5 samples, so ks [1 5] is valid: %v", err)
	}
	if _, err := NewEngine(engine.Config{Samples: 3}).Run(context.Background(), over); !named(err) {
		t.Errorf("a 3-sample engine ran ks [1 5], or did not name k and n: %v", err)
	}

	// Zero options resolve n = 5 and keep every default cut-off; three
	// samples drop the default 5.
	if n := (engine.Config{}).PassKSamples(); n != 5 {
		t.Errorf("zero config draws %d samples, want the paper's 5", n)
	}
	canon, err := Request{Task: "agr"}.Canonical()
	if err != nil || fmt.Sprint(canon.Params.Ks) != "[1 3 5]" {
		t.Errorf("zero options resolved ks %v (%v), want [1 3 5]", canon.Params.Ks, err)
	}
	canon, err = Request{Task: "agr", Options: engine.Config{Samples: 3}}.Canonical()
	if err != nil || fmt.Sprint(canon.Params.Ks) != "[1 3]" {
		t.Errorf("3 samples resolved ks %v (%v), want [1 3]", canon.Params.Ks, err)
	}
	run, err := NewEngine(engine.Config{Limit: 2, Samples: 3, Workers: 1}).Run(context.Background(),
		Request{Task: "nl2sva-human-passk", Params: Params{Models: []string{"gpt-4o"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(run.Request.Params.Ks, run.Report.Params.Ks); got != "[1 3] [1 3]" {
		t.Errorf("echoed cut-offs %s, want [1 3] in the request and the report", got)
	}
	if row := run.Report.Groups[0].Rows[0]; len(row.FuncK) != 2 || row.Samples != 3 {
		t.Errorf("row folded at the wrong cut-offs: %+v", row)
	}
}
