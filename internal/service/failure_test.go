package service

// Failure-semantics tests for ISSUE 10: torn journal writes at every
// byte offset, coordinator kill -9 mid-distributed-run with checkpoint
// resume, the worker re-registration race, end-to-end deadlines, and
// the registration/heartbeat fault seams.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/fault"
	"fveval/internal/service/api"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

// TestTornCheckpointEveryByteOffset cuts a checkpoint journal record
// at every byte offset — the full sweep of what a crash between write
// and fsync can leave on disk — and asserts recovery never loses a
// terminal run, never resurrects a cancelled one, and never corrupts
// the replay of everything written before the tear.
func TestTornCheckpointEveryByteOffset(t *testing.T) {
	defer fault.Reset()

	plainSub := api.Submission{Request: task.Request{Task: "dataset-stats"}}
	distSub := api.Submission{Request: task.Request{Task: "dataset-stats"}, Distributed: true}
	prefix := []*journalRecord{
		// A finished run, a cancelled run, a queued run, and an
		// in-flight distributed run the torn checkpoint belongs to.
		{Op: "submit", MS: 1, ID: "run-000001", Client: "ip-x", Sub: &plainSub},
		{Op: "start", MS: 2, ID: "run-000001"},
		{Op: "finish", MS: 3, ID: "run-000001", Status: api.StateDone},
		{Op: "submit", MS: 4, ID: "run-000002", Client: "ip-x", Sub: &plainSub},
		{Op: "finish", MS: 5, ID: "run-000002", Status: api.StateCancelled, Error: "cancelled by client"},
		// An intact checkpoint aimed at the cancelled run: the guard
		// must drop it regardless of where the later tear lands.
		{Op: "checkpoint", MS: 6, ID: "run-000002", Shard: 0, Shards: 2, Partial: &task.Partial{}},
		{Op: "submit", MS: 7, ID: "run-000003", Client: "ip-y", Sub: &plainSub},
		{Op: "submit", MS: 8, ID: "run-000004", Client: "ip-y", Sub: &distSub},
		{Op: "start", MS: 9, ID: "run-000004"},
	}
	ck := &journalRecord{Op: "checkpoint", MS: 10, ID: "run-000004", Shard: 0, Shards: 2, Partial: &task.Partial{}}
	ckJSON, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	lineLen := len(ckJSON) + 1 // journal.append writes data + '\n'

	for off := 0; off < lineLen; off++ {
		dir := t.TempDir()
		j, _, err := openJournal(dir)
		if err != nil {
			t.Fatalf("offset %d: open: %v", off, err)
		}
		for _, rec := range prefix {
			if _, err := j.append(rec); err != nil {
				t.Fatalf("offset %d: prefix append: %v", off, err)
			}
		}
		if err := fault.Activate(fault.Plan{Points: map[string]fault.PointPlan{
			fault.JournalFsync: {Cut: true, CutAt: off, Count: 1},
		}}); err != nil {
			t.Fatalf("offset %d: activate: %v", off, err)
		}
		_, err = j.append(ck)
		fault.Reset()
		if err == nil {
			t.Fatalf("offset %d: torn append did not report failure", off)
		}
		j.Close()

		j2, recovered, err := openJournal(dir)
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		j2.Close()

		if r := recovered["run-000001"]; r == nil || r.Status != api.StateDone {
			t.Fatalf("offset %d: terminal run lost or mutated: %+v", off, r)
		}
		if r := recovered["run-000002"]; r == nil || r.Status != api.StateCancelled || len(r.Checkpoints) != 0 {
			t.Fatalf("offset %d: cancelled run resurrected: %+v", off, r)
		}
		if r := recovered["run-000003"]; r == nil || r.Status != api.StateQueued {
			t.Fatalf("offset %d: queued run lost: %+v", off, r)
		}
		r := recovered["run-000004"]
		if r == nil || r.Status != api.StateRunning {
			t.Fatalf("offset %d: in-flight run lost: %+v", off, r)
		}
		// Only a tear after the record's final byte (newline missing
		// but data complete) may surface the checkpoint; any shorter
		// prefix must vanish, never half-apply.
		switch {
		case len(r.Checkpoints) == 0:
			if off == len(ckJSON) {
				t.Fatalf("offset %d: complete record (missing newline only) was dropped", off)
			}
		case len(r.Checkpoints) == 1 && r.Checkpoints[0] != nil && r.CheckpointShards == 2:
			if off != len(ckJSON) {
				t.Fatalf("offset %d: torn checkpoint half-applied", off)
			}
		default:
			t.Fatalf("offset %d: corrupt checkpoint state: %+v", off, r)
		}
	}
}

// TestJournalAppendAndCompactFaultSeams pins the other two journal
// fault points: a failed append surfaces its error without corrupting
// the file, and a failed compaction leaves the journal fully
// replayable — both recover on the next attempt once the fault clears.
func TestJournalAppendAndCompactFaultSeams(t *testing.T) {
	defer fault.Reset()

	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub := api.Submission{Request: task.Request{Task: "dataset-stats"}}
	rec1 := &journalRecord{Op: "submit", MS: 1, ID: "run-000001", Client: "ip-x", Sub: &sub}
	rec2 := &journalRecord{Op: "submit", MS: 2, ID: "run-000002", Client: "ip-x", Sub: &sub}
	if _, err := j.append(rec1); err != nil {
		t.Fatal(err)
	}

	if err := fault.Activate(fault.Plan{Points: map[string]fault.PointPlan{
		fault.JournalAppend:   {Count: 1},
		fault.SnapshotCompact: {Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.append(rec2); err == nil {
		t.Fatal("append fault did not surface")
	}
	if _, err := j.append(rec2); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	if err := j.compact([]*runRecord{{ID: "run-000001", Status: api.StateQueued, Sub: sub}}); err == nil {
		t.Fatal("compact fault did not surface")
	}
	if fault.Fires(fault.JournalAppend) != 1 || fault.Fires(fault.SnapshotCompact) != 1 {
		t.Fatalf("fires = %d/%d, want 1/1",
			fault.Fires(fault.JournalAppend), fault.Fires(fault.SnapshotCompact))
	}
	fault.Reset()
	j.Close()

	// The failed compaction must not have touched the journal: both
	// appended records replay.
	j2, recovered, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d runs after failed compact, want 2", len(recovered))
	}
	// A clean compaction then snapshots the live set and truncates.
	recs := make([]*runRecord, 0, len(recovered))
	for _, r := range recovered {
		recs = append(recs, r)
	}
	if err := j2.compact(recs); err != nil {
		t.Fatalf("compact after fault cleared: %v", err)
	}
	j2.Close()
	j3, again, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(again) != 2 {
		t.Fatalf("recovered %d runs from snapshot, want 2", len(again))
	}
}

// gatedShardWorker fronts a real worker server and blocks any shard
// submission whose body matches marker until gate closes (or the
// request context dies — the coordinator-crash case).
func gatedShardWorker(t *testing.T, backend *Server, marker string, gate chan struct{}) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, `{"error":{"code":"bad_request","message":"body"}}`, http.StatusBadRequest)
				return
			}
			if strings.Contains(string(body), marker) {
				select {
				case <-gate:
				case <-r.Context().Done():
					http.Error(w, `{"error":{"code":"internal","message":"gated shard"}}`, http.StatusInternalServerError)
					return
				}
			}
			r2 := r.Clone(r.Context())
			r2.Body = io.NopCloser(bytes.NewReader(body))
			r2.ContentLength = int64(len(body))
			backend.ServeHTTP(w, r2)
			return
		}
		backend.ServeHTTP(w, r)
	}))
}

// TestCheckpointResumeAfterCoordinatorKill is the ISSUE 10 acceptance
// e2e: kill -9 the coordinator mid-distributed-run after one shard
// checkpointed, restart over the same data dir, and the run resumes
// from the checkpoint — never reported interrupted — with the final
// report byte-identical to an uninterrupted single-engine run.
func TestCheckpointResumeAfterCoordinatorKill(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})

	// Two workers; shard 1 submissions gate on both, so shard 0
	// completes (and checkpoints) while shard 1 — and any hedge of it —
	// pins the run in flight.
	wA := gatedShardWorker(t, newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}), `"index":1`, gate)
	defer wA.Close()
	wB := gatedShardWorker(t, newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}), `"index":1`, gate)
	defer wB.Close()

	req := task.Request{
		Task:    "nl2sva-human",
		Params:  task.Params{Models: []string{"gpt-4o", "llama-3-8b"}},
		Options: engine.Config{Limit: 6, Workers: 2},
	}
	base, err := task.NewEngine(engine.Config{}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := base.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}

	s1, err := New(Config{
		Engine:      task.NewEngine(engine.Config{Workers: 1}),
		DataDir:     dir,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(s1)
	s1.registry.register(wA.URL)
	s1.registry.register(wB.URL)

	cl := client.New(srv1.URL)
	submitted, err := cl.Submit(context.Background(), api.Submission{Request: req, Distributed: true})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until shard 0's checkpoint is journaled, then crash.
	deadline := time.Now().Add(10 * time.Second)
	for s1.metrics.checkpointsWritten.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint landed before the crash window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same data dir with the gate open and the fleet
	// re-registered: the run must resume from shard 0's checkpoint.
	close(gate)
	s2, err := New(Config{
		Engine:      task.NewEngine(engine.Config{Workers: 1}),
		DataDir:     dir,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.registry.register(wA.URL)
	s2.registry.register(wB.URL)
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()

	view := pollTerminal(t, srv2.URL, submitted.ID)
	if view.Status != api.StateDone {
		t.Fatalf("resumed run finished %q (%q), want done — interrupted means the checkpoint was ignored",
			view.Status, view.Error)
	}
	gotEnc, err := view.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("resumed report diverged from single-engine run\n--- resumed ---\n%s\n--- single ---\n%s", gotEnc, wantEnc)
	}
	if got := s2.metrics.checkpointRestores.Load(); got == 0 {
		t.Fatalf("restart restored %d shards from checkpoints, want >= 1", got)
	}

	// The exposition carries the new resilience series.
	var buf bytes.Buffer
	s2.writeMetrics(&buf)
	for _, series := range []string{"fveval_checkpoints_total", "fveval_checkpoint_restores_total"} {
		if !strings.Contains(buf.String(), series) {
			t.Fatalf("metrics missing %s:\n%s", series, buf.String())
		}
	}
}

// TestRegistryReRegistrationRace pins the double-planning bug: a
// worker that re-registers with a differently-rendered URL while its
// old entry is still live must collapse to one fleet slot, not two.
func TestRegistryReRegistrationRace(t *testing.T) {
	clock := &fakeClock{t: time.UnixMilli(1_700_000_000_000)}
	reg := newWorkerRegistry(10*time.Second, clock.now, nil)

	id1 := reg.register("http://Worker-A:9000/")
	clock.advance(5 * time.Second)
	// Re-registration with a formatting variant of the same endpoint —
	// the shape a worker produces after its heartbeat 404s and it
	// re-advertises — must resolve to the same identity.
	id2 := reg.register("http://worker-a:9000")
	if id1 != id2 {
		t.Fatalf("variant re-registration forked identity: %s vs %s", id1, id2)
	}
	if live := reg.live(); len(live) != 1 || live[0].URL != "http://worker-a:9000" {
		t.Fatalf("fleet after re-registration: %+v, want one normalized worker", live)
	}

	// Entries predating normalization (replayed state) dedupe in live()
	// keeping the freshest, so one endpoint is never planned twice.
	reg.workers["w-old"] = &workerEntry{
		id: "w-old", url: "http://Worker-A:9000/",
		registered: clock.now().Add(-8 * time.Second),
		lastSeen:   clock.now().Add(-8 * time.Second),
	}
	live := reg.live()
	if len(live) != 1 {
		t.Fatalf("stale variant entry double-planned the endpoint: %+v", live)
	}
	if live[0].ID != id1 {
		t.Fatalf("dedup kept the stale entry %s over the fresh %s", live[0].ID, id1)
	}
}

// TestRegisterAndHeartbeatFaultSeams drives the worker-registration
// and heartbeat fault points: injected failures surface as 503 with
// Retry-After, and the fleet recovers once the plan is exhausted.
func TestRegisterAndHeartbeatFaultSeams(t *testing.T) {
	defer fault.Reset()
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()

	if err := fault.Activate(fault.Plan{Points: map[string]fault.PointPlan{
		fault.WorkerRegister:  {Count: 1},
		fault.WorkerHeartbeat: {Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}

	if _, err := cl.RegisterWorker(ctx, "http://worker-a:9000"); err == nil {
		t.Fatal("injected registration fault did not surface")
	} else if !api.IsCode(err, api.CodeInternal) {
		t.Fatalf("registration fault surfaced as %v, want %s", err, api.CodeInternal)
	}
	lease, err := cl.RegisterWorker(ctx, "http://worker-a:9000")
	if err != nil {
		t.Fatalf("registration after fault plan exhausted: %v", err)
	}
	if err := cl.Heartbeat(ctx, lease.ID); err == nil {
		t.Fatal("injected heartbeat fault did not surface")
	}
	if err := cl.Heartbeat(ctx, lease.ID); err != nil {
		t.Fatalf("heartbeat after fault plan exhausted: %v", err)
	}
	if fault.Fires(fault.WorkerRegister) != 1 || fault.Fires(fault.WorkerHeartbeat) != 1 {
		t.Fatalf("fault fire counts: register=%d heartbeat=%d, want 1 each",
			fault.Fires(fault.WorkerRegister), fault.Fires(fault.WorkerHeartbeat))
	}
}

// TestRunDeadline covers timeout_ms end to end: negative values are
// rejected at admission, an overrun distributed run lands in the
// error state naming the deadline, and the remaining budget is
// forwarded to workers on every shard submission.
func TestRunDeadline(t *testing.T) {
	resp, err := http.Post(
		httptest.NewServer(newTestServer(t, Config{})).URL+"/v1/runs",
		"application/json",
		strings.NewReader(`{"task":"dataset-stats","timeout_ms":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms admitted: status %d", resp.StatusCode)
	}

	// A worker that records each shard submission body, then hangs
	// until the deadline kills the run.
	var sawTimeout atomic.Bool
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, _ := io.ReadAll(r.Body)
			if strings.Contains(string(body), `"timeout_ms"`) {
				sawTimeout.Store(true)
			}
		}
		select { // hang until the coordinator gives up
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
		http.Error(w, `{"error":{"code":"internal","message":"hung worker"}}`, http.StatusInternalServerError)
	}))
	defer worker.Close()

	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	s.registry.register(worker.URL)

	cl := client.New(srv.URL)
	submitted, err := cl.Submit(context.Background(), api.Submission{
		Request:     task.Request{Task: "dataset-stats"},
		Distributed: true,
		TimeoutMS:   300,
	})
	if err != nil {
		t.Fatal(err)
	}
	view := pollTerminal(t, srv.URL, submitted.ID)
	if view.Status != api.StateError || !strings.Contains(view.Error, "deadline") {
		t.Fatalf("overrun run finished %q (%q), want error naming the deadline", view.Status, view.Error)
	}
	if !sawTimeout.Load() {
		t.Fatal("shard submission did not forward the remaining timeout_ms budget")
	}
}

// shardFleet starts two fvevald workers and returns their clients and
// a coordinator over dist.NewHTTPRunner, the client.RunShard transport.
func shardFleet(t *testing.T, opts dist.Options) ([]*client.Client, *dist.Coordinator) {
	t.Helper()
	var workers []*client.Client
	var runners []dist.Runner
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}))
		t.Cleanup(srv.Close)
		workers = append(workers, client.New(srv.URL))
		runners = append(runners, dist.NewHTTPRunner(srv.URL))
	}
	coord, err := dist.New(runners, opts)
	if err != nil {
		t.Fatal(err)
	}
	return workers, coord
}

// workerStates counts the states of every run the workers hold.
func workerStates(t *testing.T, workers []*client.Client) map[string]int {
	t.Helper()
	states := map[string]int{}
	for _, w := range workers {
		list, err := w.Runs(context.Background(), api.ListRunsQuery{Limit: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range list.Runs {
			states[r.Status]++
		}
	}
	return states
}

// TestRunShardContract pins the client.RunShard transport over real
// HTTP workers: a shard whose worker-side run ends in state error is
// retried and the merged report stays byte-identical to a
// single-engine run, and a shard the coordinator abandons ends
// cancelled on its worker.
func TestRunShardContract(t *testing.T) {
	req := task.Request{
		Task:    "nl2sva-human",
		Params:  task.Params{Models: []string{"gpt-4o", "llama-3-8b"}},
		Options: engine.Config{Limit: 6, Workers: 1},
	}
	base, err := task.NewEngine(engine.Config{}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := base.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("error-retried", func(t *testing.T) {
		workers, coord := shardFleet(t, dist.Options{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond})
		if err := fault.Activate(fault.Plan{Seed: 5, Points: map[string]fault.PointPlan{
			fault.EngineJob: {Count: 1},
		}}); err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run(context.Background(), req)
		fault.Reset()
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries != 1 {
			t.Fatalf("retries = %d, want 1", res.Retries)
		}
		gotEnc, err := res.Run.Report.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("retried run diverged\n--- dist ---\n%s\n--- single ---\n%s", gotEnc, wantEnc)
		}
		if got := workerStates(t, workers); got[api.StateError] != 1 || got[api.StateDone] != res.Shards {
			t.Fatalf("worker run states %v, want 1 error and %d done", got, res.Shards)
		}
	})

	t.Run("abandoned-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		workers, coord := shardFleet(t, dist.Options{Progress: func(ev dist.Event) {
			if ev.Type == dist.EventJob {
				cancel()
			}
		}})
		// Stall every job so both shards are still running when the
		// first job event abandons the run.
		if err := fault.Activate(fault.Plan{Points: map[string]fault.PointPlan{
			fault.EngineJob: {Delay: 20 * time.Millisecond},
		}}); err != nil {
			t.Fatal(err)
		}
		defer fault.Reset()
		if _, err := coord.Run(ctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned run returned %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			got := workerStates(t, workers)
			if got[api.StateCancelled] == 2 && len(got) == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker run states %v, want 2 cancelled", got)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
