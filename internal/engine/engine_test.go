package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"fveval/internal/core"
	"fveval/internal/fault"
	"fveval/internal/llm"
)

// must returns a grid evaluation's result, failing t on its error:
// must(t)(e.HumanGrid(...)).
func must(t *testing.T) func(*Grid, error) *Grid {
	return func(g *Grid, err error) *Grid {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func TestRunHumanSmall(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o"), llm.ModelByName("llama-3-8b")}
	rows := must(t)(New(Config{Limit: 12}).HumanGrid(context.Background(), models, false, nil)).Rows(nil)
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Count != 12 {
			t.Fatalf("%s: count %d", r.Model, r.Count)
		}
		if r.Partial < r.Func {
			t.Fatalf("%s: partial %f < func %f", r.Model, r.Partial, r.Func)
		}
		if r.Syntax < r.Partial {
			t.Fatalf("%s: syntax %f < partial %f", r.Model, r.Syntax, r.Partial)
		}
	}
	// the stronger model should not lose to the weakest by a wide
	// margin on this slice
	if rows[0].Func+0.3 < rows[1].Func {
		t.Fatalf("gpt-4o proxy unexpectedly weak: %f vs %f", rows[0].Func, rows[1].Func)
	}
	if rows[0].Model != "gpt-4o" || rows[1].Model != "llama-3-8b" {
		t.Fatalf("rows must follow the model axis: %s, %s", rows[0].Model, rows[1].Model)
	}
}

func TestRunMachineSmallBothShots(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gemini-1.5-pro")}
	ctx := context.Background()
	zero := must(t)(New(Config{}).MachineGrid(ctx, models, 0, 20, false, 0, nil)).Rows(nil)
	three := must(t)(New(Config{}).MachineGrid(ctx, models, 3, 20, false, 0, nil)).Rows(nil)
	// gemini-1.5-pro has the paper's dramatic 0-shot -> 3-shot syntax
	// jump (0.467 -> 0.880); with only 20 instances allow wide noise
	// but demand an improvement.
	if three[0].Syntax <= zero[0].Syntax {
		t.Errorf("3-shot syntax (%f) must beat 0-shot (%f) for gemini-1.5-pro",
			three[0].Syntax, zero[0].Syntax)
	}
	if zero[0].Model != "gemini-1.5-pro" || three[0].Model != "gemini-1.5-pro" || zero[0].Count != 20 || three[0].Count != 20 {
		t.Fatalf("rows malformed: %+v / %+v", zero[0], three[0])
	}
}

func TestPassKImprovesOverPass1(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o")}
	r := must(t)(New(Config{Limit: 15, Samples: 5}).HumanGrid(context.Background(), models, true, nil)).Rows([]int{1, 3, 5})[0]
	if r.FuncK[5] < r.FuncK[1] {
		t.Errorf("func@5 (%f) must be >= func@1 (%f)", r.FuncK[5], r.FuncK[1])
	}
	if r.SyntaxK[5] < r.SyntaxK[1] {
		t.Errorf("syntax@5 must be >= syntax@1")
	}
	if r.Samples != 5 || len(r.SyntaxK) != 3 || len(r.FuncK) != 3 || len(r.PartialK) != 3 {
		t.Fatalf("row must carry every cut-off: %+v", r)
	}
}

func TestRunDesignSmall(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o")}
	r := must(t)(New(Config{Limit: 4, Samples: 3}).DesignGrid(context.Background(), models, "fsm", nil)).Rows([]int{1, 3})[0]
	if r.SyntaxK[3] < r.SyntaxK[1] || r.FuncK[3] < r.FuncK[1] {
		t.Fatalf("pass@3 must dominate pass@1: %+v", r)
	}
	if r.Samples != 3 || len(r.SyntaxK) != 2 || len(r.FuncK) != 2 {
		t.Fatalf("row must carry every cut-off: %+v", r)
	}
}

// sameGrids fails t unless two evaluations of one flow agree exactly:
// every judged outcome and every row folded at the cut-offs ks (nil
// for greedy means, whose rows also carry the outcomes).
func sameGrids(t *testing.T, what string, a, b *Grid, ks []int) {
	t.Helper()
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Fatalf("%s: outcomes differ:\n%+v\n%+v", what, a.Outcomes, b.Outcomes)
	}
	if ra, rb := a.Rows(ks), b.Rows(ks); !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%s: rows differ:\n%+v\n%+v", what, ra, rb)
	}
}

// TestDeterministicAcrossWorkerCounts demands identical outcomes and
// rows for 1 vs 8 workers on every sub-benchmark flow.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o"), llm.ModelByName("llama-3.1-70b")}
	ctx := context.Background()
	newEngine := func(workers int) *Engine { return New(Config{Limit: 10, Samples: 3, Workers: workers}) }
	for _, flow := range []struct {
		name string
		ks   []int
		grid func(e *Engine) (*Grid, error)
	}{
		{"human greedy", nil, func(e *Engine) (*Grid, error) { return e.HumanGrid(ctx, models, false, nil) }},
		{"human pass@k", []int{1, 2, 3}, func(e *Engine) (*Grid, error) { return e.HumanGrid(ctx, models, true, nil) }},
		{"machine pass@k", []int{1, 2, 3}, func(e *Engine) (*Grid, error) { return e.MachineGrid(ctx, models, 3, 20, true, 0, nil) }},
		{"design fsm", []int{1, 3}, func(e *Engine) (*Grid, error) { return e.DesignGrid(ctx, models, "fsm", nil) }},
	} {
		sameGrids(t, flow.name, must(t)(flow.grid(newEngine(1))), must(t)(flow.grid(newEngine(8))), flow.ks)
	}
}

// TestCacheDoesNotChangeVerdicts checks cache-on vs cache-off verdict
// equality, outcome by outcome, on the machine dataset.
func TestCacheDoesNotChangeVerdicts(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o"), llm.ModelByName("gemini-1.5-flash")}
	ctx := context.Background()
	cached := must(t)(New(Config{Samples: 4}).MachineGrid(ctx, models, 3, 15, true, 0, nil))
	uncached := must(t)(New(Config{Samples: 4, NoCache: true}).MachineGrid(ctx, models, 3, 15, true, 0, nil))
	sameGrids(t, "machine pass@k", cached, uncached, []int{1, 4})
	// and on the greedy flow too
	ec := New(Config{Limit: 20})
	eu := New(Config{Limit: 20, NoCache: true})
	sameGrids(t, "machine greedy",
		must(t)(ec.MachineGrid(ctx, models, 3, 20, false, 0, nil)),
		must(t)(eu.MachineGrid(ctx, models, 3, 20, false, 0, nil)), nil)
	if st := ec.CacheStats(); st.Hits+st.Misses == 0 {
		t.Fatalf("cached engine saw no cache traffic")
	}
	if st := eu.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("uncached engine counted cache traffic: %+v", st)
	}
}

// TestCacheHitsOnPassK verifies the run-wide cache actually collapses
// duplicate equivalence queries in a pass@k run.
func TestCacheHitsOnPassK(t *testing.T) {
	e := New(Config{Limit: 10, Samples: 5})
	models := []llm.Model{llm.ModelByName("gpt-4o"), llm.ModelByName("llama-3.1-70b")}
	if _, err := e.MachineGrid(context.Background(), models, 3, 10, true, 0, nil); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("expected duplicate queries across samples/models to hit: %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Fatalf("hit rate out of range: %f", st.HitRate())
	}
}

// TestShardsPartitionInstances checks that shard slices are disjoint,
// cover the full instance list, and agree with the unsharded run on
// the instances they own.
func TestShardsPartitionInstances(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o")}
	ctx := context.Background()
	full := must(t)(New(Config{Limit: 12}).HumanGrid(ctx, models, false, nil))
	byID := map[string]core.Outcome{}
	for _, o := range full.Outcomes[0] {
		byID[o.InstanceID] = o
	}
	seen := map[string]bool{}
	const n = 3
	for i := 0; i < n; i++ {
		part := must(t)(New(Config{Limit: 12, Shard: Shard{Index: i, Count: n}}).HumanGrid(ctx, models, false, nil))
		for _, o := range part.Outcomes[0] {
			if seen[o.InstanceID] {
				t.Fatalf("instance %s appears in two shards", o.InstanceID)
			}
			seen[o.InstanceID] = true
			if want, ok := byID[o.InstanceID]; !ok || want != o {
				t.Fatalf("shard outcome for %s diverges from full run", o.InstanceID)
			}
		}
	}
	if len(seen) != len(byID) {
		t.Fatalf("shards cover %d of %d instances", len(seen), len(byID))
	}
}

func TestShardValidate(t *testing.T) {
	for _, s := range []Shard{{}, {Index: 0, Count: 1}, {Index: 2, Count: 3}} {
		if err := s.Validate(); err != nil {
			t.Fatalf("valid shard %v rejected: %v", s, err)
		}
	}
	for _, s := range []Shard{{Index: 3, Count: 3}, {Index: -1, Count: 2}, {Index: 0, Count: -1}} {
		if err := s.Validate(); err == nil {
			t.Fatalf("invalid shard %v accepted", s)
		}
	}
	if (Shard{}).Enabled() || (Shard{Count: 1}).Enabled() {
		t.Fatalf("trivial shards must be disabled")
	}
	if !(Shard{Index: 1, Count: 2}).Enabled() {
		t.Fatalf("real shard must be enabled")
	}
}

// TestEngineFigure6 checks the input Figure 6 correlates: a greedy
// row keeps every instance's outcome, in instance order, with its
// BLEU score and functional verdict.
func TestEngineFigure6(t *testing.T) {
	e := New(Config{Limit: 10})
	g := must(t)(e.HumanGrid(context.Background(), []llm.Model{llm.ModelByName("gpt-4o")}, false, nil))
	row := g.Rows(nil)[0]
	if !reflect.DeepEqual(row.Outcomes, g.Outcomes[0]) || len(row.Outcomes) != 10 {
		t.Fatalf("greedy row dropped outcomes: %d of %d", len(row.Outcomes), len(g.Outcomes[0]))
	}
	bleu := 0.0
	for _, o := range row.Outcomes {
		if o.BLEU < 0 || o.BLEU > 1 {
			t.Fatalf("%s: BLEU %f out of range", o.InstanceID, o.BLEU)
		}
		bleu += o.BLEU
	}
	if bleu == 0 || row.BLEU != bleu/10 {
		t.Fatalf("row BLEU %f is not the outcomes' mean %f", row.BLEU, bleu/10)
	}
}

func TestConfigDefaults(t *testing.T) {
	e := New(Config{})
	cfg := e.Config()
	if cfg.Budget != 200000 || cfg.Workers < 1 || cfg.Samples != 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{{}, {Limit: 3, Samples: 5, Workers: 2, Budget: 1000, MaxBound: 8}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Fatalf("valid config %+v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{Limit: -1},
		{Samples: -2},
		{Budget: -5},
		{MaxBound: -1},
		{Workers: -3},
		{Shard: Shard{Index: 2, Count: 2}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid config %+v accepted", c)
		}
	}
	// New must fail loudly on a malformed config instead of clamping.
	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted negative Workers")
		}
	}()
	New(Config{Workers: -1})
}

// TestObserverStreamsEveryJob checks the per-job progress feed with
// several workers, also with more workers than instance rows: one event
// per grid cell, never two observer calls at once, a done counter
// running 1..Total in call order, and outcomes equal to a one-worker
// run's.
func TestObserverStreamsEveryJob(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o"), llm.ModelByName("llama-3-8b")}
	ctx := context.Background()
	for _, cfg := range []Config{
		{Limit: 6, Samples: 2, Workers: 4},
		{Limit: 3, Samples: 2, Workers: 8},
	} {
		var inFlight atomic.Int64
		var events []Progress
		g := must(t)(New(cfg).HumanGrid(ctx, models, true, func(p Progress) {
			if inFlight.Add(1) > 1 {
				t.Errorf("%d workers: observer calls overlap", cfg.Workers)
			}
			runtime.Gosched()
			events = append(events, p)
			inFlight.Add(-1)
		}))
		want := len(models) * cfg.Limit * cfg.Samples
		if len(events) != want {
			t.Fatalf("%d workers: got %d events, want %d", cfg.Workers, len(events), want)
		}
		for i, ev := range events {
			if ev.Done != i+1 || ev.Total != want {
				t.Fatalf("%d workers: event %d: done %d/%d, want %d/%d", cfg.Workers, i, ev.Done, ev.Total, i+1, want)
			}
			if ev.Model == "" || ev.InstanceID == "" {
				t.Fatalf("%d workers: event %d missing identity: %+v", cfg.Workers, i, ev)
			}
		}
		one := cfg
		one.Workers = 1
		sameGrids(t, fmt.Sprintf("%d workers vs 1", cfg.Workers), g,
			must(t)(New(one).HumanGrid(ctx, models, true, nil)), []int{1, 2})
	}
}

// TestCancellationStopsRun checks both a pre-cancelled context and a
// cancellation triggered mid-run from the progress observer.
func TestCancellationStopsRun(t *testing.T) {
	models := []llm.Model{llm.ModelByName("gpt-4o")}
	e := New(Config{Limit: 12, Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.HumanGrid(ctx, models, false, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	_, err := e.HumanGrid(ctx, models, true, func(p Progress) {
		if seen.Add(1) == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	if n := seen.Load(); n < 2 || n >= 12*5 {
		t.Fatalf("cancelled run completed %d jobs, want a strict prefix past 2", n)
	}
}

// TestReconfigureSharesCache checks that a derived engine reuses the
// base engine's equivalence cache, and that flipping NoCache detaches
// it instead of leaking memoized verdicts.
func TestReconfigureSharesCache(t *testing.T) {
	base := New(Config{Limit: 8})
	models := []llm.Model{llm.ModelByName("gpt-4o")}
	if _, err := base.HumanGrid(context.Background(), models, false, nil); err != nil {
		t.Fatal(err)
	}
	warm := base.CacheStats()
	if warm.Misses == 0 {
		t.Fatalf("base run recorded no cache traffic")
	}

	derived, err := base.Reconfigure(Config{Limit: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if derived.st != base.st {
		t.Fatalf("derived engine did not share the memo pool")
	}
	if _, err := derived.HumanGrid(context.Background(), models, false, nil); err != nil {
		t.Fatal(err)
	}
	// The shared judgment memo absorbs the duplicate workload before it
	// reaches the equivalence cache, so no new misses may appear.
	if after := derived.CacheStats(); after.Misses != warm.Misses {
		t.Fatalf("derived run re-solved memoized judgments: before %+v after %+v", warm, after)
	}

	detached, err := base.Reconfigure(Config{Limit: 8, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if detached.st == base.st {
		t.Fatalf("NoCache engine must not share a caching memo pool")
	}
	if st := detached.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("NoCache engine inherited cache traffic: %+v", st)
	}
	if _, err := base.Reconfigure(Config{Limit: -4}); err == nil {
		t.Fatalf("Reconfigure accepted a negative Limit")
	}
}

// TestEngineJobFaultFailsRun drives the engine.job injection point: a
// fired fault aborts the grid through the cancel cause, so the caller
// sees the injected error — not a bare context.Canceled that would
// misclassify the run as cancelled by the user.
func TestEngineJobFaultFailsRun(t *testing.T) {
	defer fault.Reset()
	if err := fault.Activate(fault.Plan{Points: map[string]fault.PointPlan{
		fault.EngineJob: {Count: 1, Skip: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Limit: 12, Workers: 2})
	_, err := e.HumanGrid(context.Background(), []llm.Model{llm.ModelByName("gpt-4o")}, false, nil)
	if err == nil || !strings.Contains(err.Error(), fault.EngineJob) {
		t.Fatalf("injected engine.job fault returned %v, want the injected cause", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("injected fault surfaced as a user cancel: %v", err)
	}
}
