package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fveval/internal/engine"
	"fveval/internal/service/api"
	"fveval/internal/task"
)

// TestJournalRoundTrip replays a plain submit/start/finish history.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recovered, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(recovered))
	}
	sub := api.Submission{Request: task.Request{Task: "dataset-stats"}}
	appendAll(t, j,
		&journalRecord{Op: "submit", MS: 10, ID: "run-000001", Client: "ip-x", Sub: &sub},
		&journalRecord{Op: "start", MS: 20, ID: "run-000001"},
		&journalRecord{Op: "finish", MS: 30, ID: "run-000001", Status: api.StateDone},
		&journalRecord{Op: "submit", MS: 40, ID: "run-000002", Client: "ip-x", Sub: &sub},
		&journalRecord{Op: "start", MS: 50, ID: "run-000002"},
		&journalRecord{Op: "submit", MS: 60, ID: "run-000003", Client: "ip-y", Sub: &sub},
	)
	j.Close()

	_, recovered, err = openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recovered))
	}
	r1 := recovered["run-000001"]
	if r1.Status != api.StateDone || r1.CreatedMS != 10 || r1.StartedMS != 20 || r1.FinishedMS != 30 {
		t.Fatalf("run-000001 malformed: %+v", r1)
	}
	if recovered["run-000002"].Status != api.StateRunning {
		t.Fatalf("run-000002 status %q", recovered["run-000002"].Status)
	}
	if r3 := recovered["run-000003"]; r3.Status != api.StateQueued || r3.Client != "ip-y" {
		t.Fatalf("run-000003 malformed: %+v", r3)
	}
}

func appendAll(t *testing.T, j *journal, recs ...*journalRecord) {
	t.Helper()
	for _, rec := range recs {
		if _, err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalTornLine simulates kill -9 mid-append: a torn final line
// must not poison recovery of everything before it.
func TestJournalTornLine(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub := api.Submission{Request: task.Request{Task: "dataset-stats"}}
	appendAll(t, j,
		&journalRecord{Op: "submit", MS: 10, ID: "run-000001", Sub: &sub},
		&journalRecord{Op: "finish", MS: 20, ID: "run-000001", Status: api.StateDone},
	)
	j.Close()

	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","ms":30,"id":"run-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, recovered, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered["run-000001"].Status != api.StateDone {
		t.Fatalf("torn-line recovery malformed: %+v", recovered)
	}
}

// TestJournalCompaction checks snapshot + truncate + idempotent
// replay: records appended after a compaction layer on top of the
// snapshot, and the journal's byte growth is bounded.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub := api.Submission{Request: task.Request{Task: "dataset-stats"}}
	appendAll(t, j,
		&journalRecord{Op: "submit", MS: 10, ID: "run-000001", Sub: &sub},
		&journalRecord{Op: "finish", MS: 20, ID: "run-000001", Status: api.StateDone},
	)
	pre, err := j.size()
	if err != nil || pre == 0 {
		t.Fatalf("journal empty before compaction (%v)", err)
	}

	if err := j.compact([]*runRecord{{
		ID: "run-000001", Sub: sub, Status: api.StateDone, CreatedMS: 10, FinishedMS: 20,
	}}); err != nil {
		t.Fatal(err)
	}
	post, err := j.size()
	if err != nil || post != 0 {
		t.Fatalf("journal not truncated: %d bytes (%v)", post, err)
	}

	// Appends after compaction land in the truncated journal and
	// replay on top of the snapshot.
	appendAll(t, j,
		&journalRecord{Op: "submit", MS: 30, ID: "run-000002", Sub: &sub},
		&journalRecord{Op: "finish", MS: 40, ID: "run-000002", Status: api.StateError, Error: "boom"},
	)
	j.Close()

	_, recovered, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recovered))
	}
	if recovered["run-000001"].Status != api.StateDone {
		t.Fatalf("snapshot record lost: %+v", recovered["run-000001"])
	}
	if r := recovered["run-000002"]; r.Status != api.StateError || r.Error != "boom" {
		t.Fatalf("post-compaction record malformed: %+v", r)
	}
}

// TestServerCompactionTrigger drives enough journal appends through
// the server wrapper to cross compactThreshold and verifies the
// journal resets and the compaction is counted.
func TestServerCompactionTrigger(t *testing.T) {
	s := newTestServer(t, Config{DataDir: t.TempDir()})
	for i := 0; i < compactThreshold+4; i++ {
		// Finish records for ids that never existed are ignored on
		// replay, so this only exercises the append/compact machinery.
		s.journalAppend(&journalRecord{Op: "finish", MS: int64(i), ID: "run-bogus", Status: api.StateDone})
	}
	if got := s.metrics.compactions.Load(); got < 1 {
		t.Fatalf("no compaction after %d appends", compactThreshold+4)
	}
	size, err := s.journal.size()
	if err != nil {
		t.Fatal(err)
	}
	// Bounded growth: far below threshold-many records' worth.
	if s.journal.appends >= compactThreshold || size == 0 && s.journal.appends != 0 {
		t.Fatalf("journal did not reset: %d appends, %d bytes", s.journal.appends, size)
	}
}

// TestEvictionHonorsFinishTime is the retention-bugfix regression:
// eviction beyond RetainRuns must drop the oldest-*finished* runs,
// not the earliest-inserted ones.
func TestEvictionHonorsFinishTime(t *testing.T) {
	s := newTestServer(t, Config{RetainRuns: 2})
	finished := map[string]int64{
		"run-000001": 400, // inserted first, finished last
		"run-000002": 100,
		"run-000003": 300,
		"run-000004": 200,
	}
	s.mu.Lock()
	for id, ms := range finished {
		rs := &runState{rec: runRecord{
			ID: id, Status: api.StateDone, FinishedMS: ms,
			Sub: api.Submission{Request: task.Request{Task: "dataset-stats"}},
		}, notify: make(chan struct{})}
		close(rs.notify)
		s.runs[id] = rs
	}
	s.evictLocked(0)
	defer s.mu.Unlock()
	if len(s.runs) != 2 {
		t.Fatalf("retained %d runs, want 2", len(s.runs))
	}
	for _, id := range []string{"run-000001", "run-000003"} {
		if s.runs[id] == nil {
			t.Fatalf("newest-finished run %s was evicted (insertion-order bug)", id)
		}
	}
}

// TestRetainAgeEviction checks the age bound: terminal runs older
// than RetainAge are evicted even when the count bound has room.
func TestRetainAgeEviction(t *testing.T) {
	clock := &fakeClock{t: time.UnixMilli(1_700_000_000_000)}
	s := newTestServer(t, Config{
		RetainRuns: 100,
		RetainAge:  time.Minute,
		Now:        clock.now,
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(`{"task":"dataset-stats"}`))
	if err != nil {
		t.Fatal(err)
	}
	var first api.SubmitResponse
	decodeBody(t, resp, &first)
	pollTerminal(t, srv.URL, first.ID)

	clock.advance(2 * time.Minute)
	resp, err = http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"task":"dataset-stats","options":{"no_cache":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	var second api.SubmitResponse
	decodeBody(t, resp, &second)
	pollTerminal(t, srv.URL, second.ID)

	resp, err = http.Get(srv.URL + "/v1/runs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("aged-out run still served: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/runs/" + second.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("young run evicted: status %d", resp.StatusCode)
	}
}

// TestFinishEvictsBeforeTerminal drives finish directly under the
// fake clock: run A finished two minutes before run B finishes, with a
// one-minute RetainAge, so B's finish evicts A. A client that sees B
// terminal must no longer be served A. The clock hook probes the store
// at every clock read after B's finish begins — the points where the
// store is unlocked — and records any moment at which B is terminal
// while A is still stored.
func TestFinishEvictsBeforeTerminal(t *testing.T) {
	clock := &fakeClock{t: time.UnixMilli(1_700_000_000_000)}
	var (
		s          *Server
		b          *runState
		probes     int
		staleSeen  bool
		sub        = api.Submission{Request: task.Request{Task: "dataset-stats"}}
		aID, bID   = "run-000001", "run-000002"
		finishedMS = clock.t.UnixMilli()
	)
	s = newTestServer(t, Config{RetainRuns: 100, RetainAge: time.Minute, Now: func() time.Time {
		if b != nil && s.mu.TryLock() {
			if b.mu.TryLock() {
				probes++
				_, kept := s.runs[aID]
				staleSeen = staleSeen || kept && api.Terminal(b.rec.Status)
				b.mu.Unlock()
			}
			s.mu.Unlock()
		}
		return clock.now()
	}})

	a := &runState{rec: runRecord{ID: aID, Status: api.StateDone, FinishedMS: finishedMS, Sub: sub}, notify: make(chan struct{})}
	close(a.notify)
	running := &runState{rec: runRecord{ID: bID, Client: "c", Status: api.StateRunning, Sub: sub}, notify: make(chan struct{})}
	s.mu.Lock()
	s.runs[aID], s.runs[bID] = a, running
	s.inflight++
	s.clientLoad["c"]++
	s.mu.Unlock()

	clock.advance(2 * time.Minute)
	b = running
	s.finish(b, &task.Run{}, nil, nil)

	if probes == 0 {
		t.Fatal("finish never read the clock; the probe saw nothing")
	}
	if staleSeen {
		t.Fatal("run B was terminal while the run its finish evicts was still served")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runs[aID] != nil {
		t.Fatal("aged-out run A still stored after B's finish")
	}
	if s.runs[bID] == nil || s.runs[bID].rec.Status != api.StateDone {
		t.Fatal("run B is not stored as done")
	}
}

// TestRestartRecovery is the acceptance e2e for the persistent run
// store: a server dies abruptly (Close is kill -9-shaped) with one
// run finished, one distributed run in flight, one local run in
// flight, and one still queued. On restart over the same data dir the
// finished run is served byte-identical, the distributed in-flight
// run resumes through the queue (not interrupted), the local
// in-flight run is reported interrupted, and the queued run resumes
// to completion.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()

	// A worker that hangs until released pins the in-flight run in the
	// running state deterministically.
	gate := make(chan struct{})
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-gate:
		case <-r.Context().Done():
		}
		http.Error(w, `{"error":{"code":"internal","message":"gated worker"}}`, http.StatusInternalServerError)
	}))
	defer worker.Close()
	defer close(gate)

	s1, err := New(Config{
		Engine:      task.NewEngine(engine.Config{Workers: 1}),
		DataDir:     dir,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(s1)
	s1.registry.register(worker.URL)

	// 1. A run that completes before the crash.
	resp, err := http.Post(srv1.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	var done api.SubmitResponse
	decodeBody(t, resp, &done)
	doneView := pollTerminal(t, srv1.URL, done.ID)
	if doneView.Status != api.StateDone {
		t.Fatalf("first run: %s (%s)", doneView.Status, doneView.Error)
	}
	wantRun, err := json.Marshal(doneView.Run)
	if err != nil {
		t.Fatal(err)
	}

	// 2. A run pinned mid-flight at the crash (single executor, gated
	// worker).
	resp, err = http.Post(srv1.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"task":"dataset-stats","distributed":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var inflight api.SubmitResponse
	decodeBody(t, resp, &inflight)
	waitRunning(t, srv1.URL, inflight.ID)

	// 3. A run still queued behind it.
	resp, err = http.Post(srv1.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"task":"dataset-stats"}`))
	if err != nil {
		t.Fatal(err)
	}
	var queued api.SubmitResponse
	decodeBody(t, resp, &queued)
	if queued.Status != api.StateQueued {
		t.Fatalf("third run not queued: %+v", queued)
	}

	// Crash. Close cancels contexts without journaling terminal
	// states — exactly what kill -9 leaves on disk.
	srv1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// 4. A local (non-distributed) run pinned in flight at the crash:
	// the engine cannot be gated from outside, so append the exact
	// journal suffix kill -9 leaves behind — a submit and a start with
	// no finish.
	jf, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	localSub := api.Submission{Request: task.Request{Task: "dataset-stats"}}
	for _, rec := range []*journalRecord{
		{Op: "submit", MS: 1, ID: "run-000099", Client: "ip-x", Sub: &localSub},
		{Op: "start", MS: 2, ID: "run-000099"},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jf.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	jf.Close()

	// A functioning worker for the restarted server, so the resumed
	// distributed run has a fleet to finish on.
	goodWorker := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{Workers: 1})}))
	defer goodWorker.Close()

	// Restart over the same data dir.
	s2, err := New(Config{
		Engine:      task.NewEngine(engine.Config{Workers: 1}),
		DataDir:     dir,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.registry.register(goodWorker.URL)
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()

	// Terminal run: byte-identical payload.
	var recoveredView api.RunView
	getJSON(t, srv2.URL+"/v1/runs/"+done.ID, &recoveredView)
	if recoveredView.Status != api.StateDone {
		t.Fatalf("recovered run status %q", recoveredView.Status)
	}
	gotRun, err := json.Marshal(recoveredView.Run)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRun, wantRun) {
		t.Fatalf("recovered Run diverged\n--- recovered ---\n%s\n--- original ---\n%s", gotRun, wantRun)
	}

	// In-flight distributed run: resumed through the queue and driven
	// to completion on the re-registered fleet, not interrupted.
	resumedDist := pollTerminal(t, srv2.URL, inflight.ID)
	if resumedDist.Status != api.StateDone {
		t.Fatalf("in-flight distributed run recovered as %q (%q), want resumed to done",
			resumedDist.Status, resumedDist.Error)
	}

	// In-flight local run: interrupted, with an explanation.
	var interruptedView api.RunView
	getJSON(t, srv2.URL+"/v1/runs/run-000099", &interruptedView)
	if interruptedView.Status != api.StateInterrupted || interruptedView.Error == "" {
		t.Fatalf("in-flight local run recovered as %q (%q)", interruptedView.Status, interruptedView.Error)
	}

	// Queued run: resumed and completed by the restarted server.
	resumed := pollTerminal(t, srv2.URL, queued.ID)
	if resumed.Status != api.StateDone {
		t.Fatalf("queued run resumed to %q (%s)", resumed.Status, resumed.Error)
	}

	// The result cache was reseeded from the journal: resubmitting the
	// finished request is an immediate cache hit.
	resp, err = http.Post(srv2.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	var cached api.SubmitResponse
	decodeBody(t, resp, &cached)
	if resp.StatusCode != http.StatusOK || !cached.Cached {
		t.Fatalf("post-restart resubmit not cached: status %d %+v", resp.StatusCode, cached)
	}

	// A restart marker made it to /metrics.
	var buf bytes.Buffer
	s2.writeMetrics(&buf)
	if !strings.Contains(buf.String(), `fveval_runs_total{status="interrupted"} 1`) {
		t.Fatalf("metrics missing interrupted count:\n%s", buf.String())
	}
}
