package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fveval/internal/engine"
	"fveval/internal/fault"
	"fveval/internal/task"
)

// smallRequest shrinks each registry task to a fast deterministic
// slice; every task stays covered.
func smallRequest(name string) task.Request {
	req := task.Request{Task: name, Options: engine.Config{Workers: 2}}
	switch name {
	case "nl2sva-human":
		req.Params = task.Params{Models: []string{"gpt-4o", "llama-3-8b"}}
		req.Options.Limit = 6
	case "nl2sva-human-passk":
		req.Params = task.Params{Models: []string{"gpt-4o"}}
		req.Options.Limit = 4
		req.Options.Samples = 2
	case "nl2sva-machine":
		req.Params = task.Params{Models: []string{"gpt-4o"}, Count: 8}
	case "nl2sva-machine-passk":
		req.Params = task.Params{Models: []string{"gpt-4o"}, Count: 6}
		req.Options.Samples = 2
	case "design2sva":
		req.Params = task.Params{Models: []string{"gpt-4o"}}
		req.Options.Limit = 2
		req.Options.Samples = 2
	case "machine-token-lengths":
		req.Params = task.Params{Count: 30}
	case "bleu-correlation":
		req.Params = task.Params{Models: []string{"gpt-4o"}}
		req.Options.Limit = 5
	}
	return req
}

// single runs the request on one plain engine — the oracle every
// distributed configuration must match byte-for-byte.
func single(t *testing.T, req task.Request) ([]byte, string) {
	t.Helper()
	run, err := task.NewEngine(engine.Config{}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc, run.Report.Render()
}

// TestCoordinatorByteIdenticalEveryTask is the subsystem's acceptance
// bar: for every registry task, coordinator output over 1, 2, 4, and 7
// loopback workers is byte-identical (Encode and Render) to the
// single-engine run.
func TestCoordinatorByteIdenticalEveryTask(t *testing.T) {
	for _, spec := range task.Tasks() {
		t.Run(spec.Name, func(t *testing.T) {
			req := smallRequest(spec.Name)
			wantEnc, wantText := single(t, req)
			for _, workers := range []int{1, 2, 4, 7} {
				c, err := New(Loopback(workers, engine.Config{}), Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(context.Background(), req)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				gotEnc, err := res.Run.Report.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotEnc, wantEnc) {
					t.Fatalf("%d workers: Encode diverged\n--- dist ---\n%s\n--- single ---\n%s", workers, gotEnc, wantEnc)
				}
				if got := res.Run.Report.Render(); got != wantText {
					t.Fatalf("%d workers: Render diverged\n--- dist ---\n%s\n--- single ---\n%s", workers, got, wantText)
				}
				wantShards := workers
				if !spec.Shardable() {
					wantShards = 1
				}
				if res.Shards != wantShards || res.Workers != workers {
					t.Fatalf("%d workers: result metadata %d shards / %d workers", workers, res.Shards, res.Workers)
				}
			}
		})
	}
}

// flakyRunner fails its first failures Run calls, then delegates.
type flakyRunner struct {
	Runner
	mu       sync.Mutex
	failures int
}

func (r *flakyRunner) Run(ctx context.Context, req task.Request) (*task.Partial, error) {
	r.mu.Lock()
	fail := r.failures > 0
	if fail {
		r.failures--
	}
	r.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("injected worker failure")
	}
	return r.Runner.Run(ctx, req)
}

// deadRunner always fails.
type deadRunner struct{ name string }

func (r *deadRunner) Name() string { return r.name }
func (r *deadRunner) Run(context.Context, task.Request) (*task.Partial, error) {
	return nil, fmt.Errorf("connection refused")
}

// TestCoordinatorRetriesInjectedFailure injects one worker failure
// into a 2-worker fleet: the shard must be retried and the merged
// output must stay byte-identical to the single-engine run.
func TestCoordinatorRetriesInjectedFailure(t *testing.T) {
	req := smallRequest("nl2sva-human-passk")
	wantEnc, wantText := single(t, req)

	fleet := Loopback(2, engine.Config{})
	fleet[0] = &flakyRunner{Runner: fleet[0], failures: 1}
	var events []Event
	c, err := New(fleet, Options{Progress: func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 || res.Attempts != res.Shards+1 {
		t.Fatalf("expected exactly one retry, got %d retries / %d attempts over %d shards",
			res.Retries, res.Attempts, res.Shards)
	}
	gotEnc, err := res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) || res.Run.Report.Render() != wantText {
		t.Fatalf("post-retry output diverged from single-engine run")
	}
	var sawRetry bool
	for _, ev := range events {
		if ev.Type == EventShardRetry {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatalf("no %s event emitted; events: %+v", EventShardRetry, events)
	}
}

// TestCoordinatorBenchesDeadWorker pairs a permanently dead worker
// with a healthy one: the dead worker must be benched after its
// failure limit and the healthy worker must finish every shard, with
// output still byte-identical.
func TestCoordinatorBenchesDeadWorker(t *testing.T) {
	req := smallRequest("nl2sva-human")
	wantEnc, _ := single(t, req)

	fleet := []Runner{&deadRunner{name: "dead"}, NewLocalRunner("alive", task.NewEngine(engine.Config{}))}
	var benched bool
	c, err := New(fleet, Options{Shards: 4, Progress: func(ev Event) {
		if ev.Type == EventWorkerDown && ev.Worker == "dead" {
			benched = true
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !benched {
		t.Fatalf("dead worker was never benched")
	}
	gotEnc, err := res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("output diverged with a dead worker in the fleet")
	}
}

// TestCoordinatorFailsWhenFleetDies demands a clean error — not a
// hang — when every worker is dead.
func TestCoordinatorFailsWhenFleetDies(t *testing.T) {
	c, err := New([]Runner{&deadRunner{name: "a"}, &deadRunner{name: "b"}}, Options{
		Shards:          2,
		BreakerCooldown: 5 * time.Millisecond,
		BackoffBase:     time.Millisecond,
		BackoffCap:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), smallRequest("nl2sva-human"))
	if err == nil {
		t.Fatal("run over a dead fleet succeeded")
	}
	if !strings.Contains(err.Error(), "healthy") && !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("unhelpful fleet-death error: %v", err)
	}
}

// TestCoordinatorCancellation cancels mid-run and expects ctx.Err().
func TestCoordinatorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := 0
	c, err := New(Loopback(2, engine.Config{}), Options{Progress: func(ev Event) {
		if ev.Type == EventJob {
			if jobs++; jobs == 2 {
				cancel()
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	req := smallRequest("nl2sva-human-passk")
	if _, err := c.Run(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
}

// TestCoordinatorForwardsJobProgress checks merged per-job streaming:
// every evaluation job surfaces exactly once across the fleet.
func TestCoordinatorForwardsJobProgress(t *testing.T) {
	var jobs int
	c, err := New(Loopback(3, engine.Config{}), Options{Progress: func(ev Event) {
		if ev.Type == EventJob {
			jobs++
			if ev.Job == nil || ev.Job.Task != "nl2sva-human" || ev.Worker == "" {
				t.Errorf("malformed job event: %+v", ev)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	req := smallRequest("nl2sva-human")
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// 2 models x 6 instances x 1 sample
	if want := 12; jobs != want || res.Run.Stats.Jobs != want {
		t.Fatalf("forwarded %d job events, stats %d, want %d", jobs, res.Run.Stats.Jobs, want)
	}
}

// TestPlanShards pins the planner: shardable tasks split exactly n
// ways, grid-less tasks collapse to one slice, bad requests fail fast.
func TestPlanShards(t *testing.T) {
	plan, err := PlanShards(task.Request{Task: "nl2sva-human"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 4 {
		t.Fatalf("planned %d shards, want 4", len(plan.Shards))
	}
	for i, sub := range plan.Shards {
		want := engine.Shard{Index: i, Count: 4}
		if sub.Options.Shard != want {
			t.Fatalf("shard %d got slice %v", i, sub.Options.Shard)
		}
	}
	plan, err = PlanShards(task.Request{Task: "dataset-stats"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 1 {
		t.Fatalf("grid-less task planned %d shards, want 1", len(plan.Shards))
	}
	if _, err := PlanShards(task.Request{Task: "no-such-task"}, 2); err == nil {
		t.Fatal("unknown task planned")
	}
	if _, err := PlanShards(task.Request{Task: "nl2sva-human"}, 0); err == nil {
		t.Fatal("zero shard count planned")
	}
}

// throttledRunner fails its first failures calls with a Retry-After
// hint, then delegates.
type throttledRunner struct {
	Runner
	mu       sync.Mutex
	failures int
	hint     time.Duration
}

type retryAfterErr struct{ d time.Duration }

func (e retryAfterErr) Error() string                 { return "throttled" }
func (e retryAfterErr) RetryAfterHint() time.Duration { return e.d }

func (r *throttledRunner) Run(ctx context.Context, req task.Request) (*task.Partial, error) {
	r.mu.Lock()
	fail := r.failures > 0
	if fail {
		r.failures--
	}
	r.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("worker busy: %w", retryAfterErr{d: r.hint})
	}
	return r.Runner.Run(ctx, req)
}

// TestBackoffHonorsRetryAfter pins that a failure carrying a
// Retry-After hint delays the retry at least that long — the hint
// overrides a shorter jittered draw.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	req := smallRequest("nl2sva-human-passk")
	wantEnc, _ := single(t, req)

	const hint = 150 * time.Millisecond
	fleet := Loopback(1, engine.Config{})
	fleet[0] = &throttledRunner{Runner: fleet[0], failures: 1, hint: hint}
	c, err := New(fleet, Options{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Fatalf("run finished in %v, Retry-After hint of %v not honored", elapsed, hint)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Retries)
	}
	gotEnc, err := res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatal("post-throttle output diverged from single-engine run")
	}
}

// TestBreakerTripsAndRecovers drives a single flaky worker through a
// full breaker cycle: consecutive failures trip it open (worker-down),
// the cooldown lapses, and the half-open probe succeeds (worker-up),
// with the run finishing byte-identical.
func TestBreakerTripsAndRecovers(t *testing.T) {
	req := smallRequest("nl2sva-human-passk")
	wantEnc, _ := single(t, req)

	fleet := Loopback(1, engine.Config{})
	fleet[0] = &flakyRunner{Runner: fleet[0], failures: 2}
	var types []string
	c, err := New(fleet, Options{
		MaxAttempts:     5,
		BackoffBase:     time.Millisecond,
		BackoffCap:      2 * time.Millisecond,
		BreakerCooldown: 10 * time.Millisecond,
		Progress: func(ev Event) {
			if ev.Type == EventWorkerDown || ev.Type == EventWorkerUp {
				types = append(types, ev.Type)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(types) < 2 || types[0] != EventWorkerDown || types[len(types)-1] != EventWorkerUp {
		t.Fatalf("breaker event sequence = %v, want trip then recovery", types)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
	gotEnc, err := res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatal("post-recovery output diverged from single-engine run")
	}
}

// TestHalfOpenProbeDoesNotBurnShardAttempts pairs a permanently dead
// worker with a slow-but-healthy one under a tight attempt budget.
// The dead worker's half-open probes keep failing while the healthy
// worker is busy; those probe failures must not be charged against the
// shard's MaxAttempts budget, or the run would go fatal before the
// healthy worker ever sees the shard.
func TestHalfOpenProbeDoesNotBurnShardAttempts(t *testing.T) {
	req := smallRequest("nl2sva-human-passk")
	wantEnc, _ := single(t, req)

	fleet := Loopback(2, engine.Config{})
	fleet[0] = &slowRunner{Runner: fleet[0], delay: 60 * time.Millisecond}
	fleet[1] = &deadRunner{name: "dead"}
	c, err := New(fleet, Options{
		MaxAttempts:        2,
		RunnerFailureLimit: 1,
		BreakerCooldown:    5 * time.Millisecond,
		BackoffBase:        time.Millisecond,
		BackoffCap:         2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run went fatal — probe failures burned the shard's attempt budget: %v", err)
	}
	if res.Retries == 0 {
		t.Fatal("dead worker never failed a dispatch; scenario did not exercise the breaker")
	}
	gotEnc, err := res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatal("post-probe output diverged from single-engine run")
	}
}

// slowRunner stalls every call until its delay elapses or the attempt
// is cancelled (hedge loser).
type slowRunner struct {
	Runner
	delay time.Duration
}

func (r *slowRunner) Run(ctx context.Context, req task.Request) (*task.Partial, error) {
	select {
	case <-time.After(r.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return r.Runner.Run(ctx, req)
}

// TestHedgeStragglerFirstResultWins pairs a fast worker with one that
// stalls for seconds: the straggler shard must be hedged to the idle
// fast worker, the hedge must win, the stalled loser must be
// cancelled, and the output must stay byte-identical — hedging refutes
// on wall-clock only, never on bytes.
func TestHedgeStragglerFirstResultWins(t *testing.T) {
	req := smallRequest("nl2sva-human")
	wantEnc, wantText := single(t, req)

	fleet := Loopback(2, engine.Config{})
	fleet[1] = &slowRunner{Runner: fleet[1], delay: 30 * time.Second}
	var hedgeEvents int
	c, err := New(fleet, Options{
		Hedge: true,
		Progress: func(ev Event) {
			if ev.Type == EventShardHedge {
				hedgeEvents++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v: hedge did not rescue the straggler", elapsed)
	}
	if res.Hedges != 1 || hedgeEvents != 1 {
		t.Fatalf("hedges = %d, hedge events = %d, want 1 each", res.Hedges, hedgeEvents)
	}
	gotEnc, err := res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) || res.Run.Report.Render() != wantText {
		t.Fatal("hedged output diverged from single-engine run")
	}
}

// TestCheckpointRestoreSkipsCompletedShards captures per-shard
// partials via OnPartial, then replays a subset as Completed: restored
// shards must not be re-dispatched and the merged output must stay
// byte-identical.
func TestCheckpointRestoreSkipsCompletedShards(t *testing.T) {
	req := smallRequest("nl2sva-human")
	wantEnc, wantText := single(t, req)

	const shards = 3
	var mu sync.Mutex
	saved := map[int]*task.Partial{}
	c, err := New(Loopback(2, engine.Config{}), Options{
		Shards: shards,
		OnPartial: func(shard, total int, p *task.Partial) {
			if total != shards {
				t.Errorf("OnPartial total = %d, want %d", total, shards)
			}
			mu.Lock()
			saved[shard] = p
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if len(saved) != shards {
		t.Fatalf("OnPartial observed %d shards, want %d", len(saved), shards)
	}

	// Resume with shards 0 and 2 checkpointed; only shard 1 may run.
	completed := map[int]*task.Partial{0: saved[0], 2: saved[2]}
	var dispatched []int
	c2, err := New(Loopback(2, engine.Config{}), Options{
		Shards:    shards,
		Completed: completed,
		Progress: func(ev Event) {
			if ev.Type == EventShardStart {
				dispatched = append(dispatched, ev.Shard.Index)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored != 2 {
		t.Fatalf("restored = %d, want 2", res.Restored)
	}
	for _, s := range dispatched {
		if s != 1 {
			t.Fatalf("checkpointed shard %d was re-dispatched", s)
		}
	}
	gotEnc, err := res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) || res.Run.Report.Render() != wantText {
		t.Fatal("resumed output diverged from single-engine run")
	}

	// Fully checkpointed: nothing dispatches at all.
	all := map[int]*task.Partial{}
	for s, p := range saved {
		all[s] = p
	}
	c3, err := New(Loopback(2, engine.Config{}), Options{Shards: shards, Completed: all})
	if err != nil {
		t.Fatal(err)
	}
	res, err = c3.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored != shards || res.Attempts != 0 {
		t.Fatalf("full restore: restored %d / attempts %d, want %d / 0", res.Restored, res.Attempts, shards)
	}
	gotEnc, err = res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatal("fully restored output diverged from single-engine run")
	}
}

// TestCheckpointOutsidePlanRejected demands a loud failure when
// checkpoints don't fit the plan — silently merging shards cut
// against a different shard count would corrupt the report.
func TestCheckpointOutsidePlanRejected(t *testing.T) {
	c, err := New(Loopback(2, engine.Config{}), Options{
		Shards:    2,
		Completed: map[int]*task.Partial{5: {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), smallRequest("nl2sva-human")); err == nil ||
		!strings.Contains(err.Error(), "outside plan") {
		t.Fatalf("out-of-plan checkpoint accepted: %v", err)
	}
}

// TestCoordinatorFaultPointsRetried exercises the dist.dispatch and
// dist.response injection points end to end: each injected failure
// must surface as a normal retry and never change output bytes.
func TestCoordinatorFaultPointsRetried(t *testing.T) {
	req := smallRequest("nl2sva-human")
	wantEnc, _ := single(t, req)

	for _, point := range []string{fault.DistDispatch, fault.DistResponse} {
		if err := fault.Activate(fault.Plan{Seed: 11, Points: map[string]fault.PointPlan{
			point: {Count: 1},
		}}); err != nil {
			t.Fatal(err)
		}
		c, err := New(Loopback(2, engine.Config{}), Options{
			BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
		})
		if err != nil {
			fault.Reset()
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), req)
		fault.Reset()
		if err != nil {
			t.Fatalf("%s: %v", point, err)
		}
		if fires := res.Retries; fires != 1 {
			t.Fatalf("%s: retries = %d, want 1", point, fires)
		}
		gotEnc, err := res.Run.Report.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("%s: output diverged under injected fault", point)
		}
	}
}
