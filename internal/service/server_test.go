package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/service/api"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

// newTestServer builds a server (in-memory store unless cfg sets a
// DataDir) and registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = task.NewEngine(engine.Config{Workers: 2})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, v)
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// pollTerminal waits for a run to reach a terminal state and returns
// its final view.
func pollTerminal(t *testing.T, base, id string) api.RunView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var view api.RunView
		getJSON(t, base+"/v1/runs/"+id, &view)
		if api.Terminal(view.Status) {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never finished (status %s)", id, view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceEndToEnd is the smoke flow CI exercises: list the
// registry, submit a small run, stream its progress, poll it to
// completion, and check the returned unified report renders the
// paper table.
func TestServiceEndToEnd(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()

	// 1. Registry listing.
	var tasks api.TaskList
	getJSON(t, srv.URL+"/v1/tasks", &tasks)
	if len(tasks.Tasks) < 10 {
		t.Fatalf("registry listing too small: %d", len(tasks.Tasks))
	}
	found := false
	for _, s := range tasks.Tasks {
		if s.Name == "nl2sva-human" && s.Table == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("nl2sva-human missing from listing")
	}

	// 2. Submit a small run.
	body := `{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":6}}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted api.SubmitResponse
	decodeBody(t, resp, &submitted)
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, submitted.ID)
	}

	// 3. Stream progress events (NDJSON): expect one line per job plus
	// a terminal status line.
	streamResp, err := http.Get(srv.URL + "/v1/runs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []task.Event
	var terminal string
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]any
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if st, ok := probe["status"].(string); ok {
			terminal = st
			break
		}
		var ev task.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if terminal != api.StateDone {
		t.Fatalf("stream ended with %q, want %q", terminal, api.StateDone)
	}
	if len(events) != 6 {
		t.Fatalf("streamed %d events, want 6", len(events))
	}
	for i, ev := range events {
		if ev.Task != "nl2sva-human" || ev.Done != i+1 || ev.Total != 6 {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
	}

	// 4. Poll the finished run; the unified report must render Table 1.
	var view api.RunView
	getJSON(t, srv.URL+"/v1/runs/"+submitted.ID, &view)
	if view.Status != api.StateDone || view.Run == nil {
		t.Fatalf("poll: %+v", view)
	}
	table := view.Run.Report.Render()
	if !strings.HasPrefix(table, "Table 1:") || !strings.Contains(table, "gpt-4o") {
		t.Fatalf("rendered report malformed:\n%s", table)
	}
	if view.Run.Stats.Jobs != 6 {
		t.Fatalf("run stats jobs %d, want 6", view.Run.Stats.Jobs)
	}

	// 5. The run list includes it, with lifecycle timestamps.
	var list api.RunList
	getJSON(t, srv.URL+"/v1/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != submitted.ID {
		t.Fatalf("run list malformed: %+v", list)
	}
	if list.Runs[0].CreatedMS == 0 || list.Runs[0].FinishedMS == 0 {
		t.Fatalf("missing lifecycle timestamps: %+v", list.Runs[0])
	}
}

// TestServiceNewSpecs runs the AGR table and the refinement figure
// end-to-end through the HTTP surface: submit, poll to completion,
// and check each renders its artifact (and that the refinement run
// reports its feedback-loop traffic in the stats).
func TestServiceNewSpecs(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()

	submit := func(body string) api.RunView {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub api.SubmitResponse
		decodeBody(t, resp, &sub)
		if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
			t.Fatalf("submit: status %d, id %q", resp.StatusCode, sub.ID)
		}
		view := pollTerminal(t, srv.URL, sub.ID)
		if view.Status != api.StateDone || view.Run == nil {
			t.Fatalf("run did not finish cleanly: %+v", view)
		}
		return view
	}

	agr := submit(`{"task":"agr","params":{"models":["gpt-4o"]},"options":{"limit":4,"samples":2}}`)
	if out := agr.Run.Report.Render(); !strings.HasPrefix(out, "Table AGR:") || !strings.Contains(out, "Unlock@") {
		t.Fatalf("AGR report malformed:\n%s", out)
	}

	ref := submit(`{"task":"refinement","params":{"models":["gpt-4o"],"count":5,"rounds":[0,2]},"options":{"samples":2}}`)
	if out := ref.Run.Report.Render(); !strings.HasPrefix(out, "Figure R:") || !strings.Contains(out, "round=2") {
		t.Fatalf("refinement report malformed:\n%s", out)
	}
	if ref.Run.Stats.RefineRounds == 0 {
		t.Fatalf("refinement run reports zero refine rounds: %+v", ref.Run.Stats)
	}
}

// TestServiceValidationAndErrors checks the 400/404 surfaces and the
// unified {"error":{"code","message"}} envelope they speak.
func TestServiceValidationAndErrors(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()

	bad := []string{
		`{"task":"no-such-task"}`,
		`{"task":"nl2sva-human","params":{"kinds":["fsm"]}}`,
		`{"task":"nl2sva-human","options":{"limit":-1}}`,
		`{"task":"nl2sva-human","unknown_field":1}`,
		`{not json`,
		`{"task":"nl2sva-human","priority":11}`,
		`{"task":"nl2sva-human","distributed":true,"options":{"shard":{"index":0,"count":2}}}`,
	}
	for _, body := range bad {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		decodeBody(t, resp, &env)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
		if env.Error.Code != api.CodeBadRequest || env.Error.Message == "" {
			t.Errorf("body %s: envelope %+v, want code %q", body, env, api.CodeBadRequest)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/runs/run-999999")
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorEnvelope
	decodeBody(t, resp, &env)
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
		t.Errorf("unknown run: status %d code %q, want 404 %q", resp.StatusCode, env.Error.Code, api.CodeNotFound)
	}
}

// TestServiceCancel submits a larger run, cancels it, and polls until
// it lands in a terminal state.
func TestServiceCancel(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{Workers: 1})}))
	defer srv.Close()

	body := `{"task":"nl2sva-human-passk","params":{"models":["gpt-4o","llama-3.1-70b"]},"options":{"samples":5,"workers":1}}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted api.SubmitResponse
	decodeBody(t, resp, &submitted)

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+submitted.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", cresp.StatusCode)
	}

	view := pollTerminal(t, srv.URL, submitted.ID)
	// A fast machine may finish the run before the cancel lands; both
	// terminal states are acceptable, but hanging is not.
	if view.Status != api.StateCancelled && view.Status != api.StateDone {
		t.Fatalf("unexpected terminal status %q", view.Status)
	}
}

// TestServiceSSEFraming checks the Accept-negotiated SSE framing.
func TestServiceSSEFraming(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(`{"task":"dataset-stats"}`))
	if err != nil {
		t.Fatal(err)
	}
	var submitted api.SubmitResponse
	decodeBody(t, resp, &submitted)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/runs/"+submitted.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(sresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "event: end") {
		t.Fatalf("SSE stream missing end event:\n%s", buf.String())
	}
}

// TestServicePartialRun submits a shard-scoped run and expects the
// raw partial-report wire shape (not an aggregated Run) back.
func TestServicePartialRun(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()

	body := `{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":6,"shard":{"index":0,"count":2}}}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted api.SubmitResponse
	decodeBody(t, resp, &submitted)
	view := pollTerminal(t, srv.URL, submitted.ID)
	if view.Status != api.StateDone {
		t.Fatalf("partial run ended %s (%s)", view.Status, view.Error)
	}
	if view.Run != nil {
		t.Fatalf("shard-scoped run returned an aggregated Run")
	}
	p := view.Part
	if p == nil || p.Task != "nl2sva-human" || len(p.Groups) != 1 {
		t.Fatalf("partial malformed: %+v", p)
	}
	g := p.Groups[0].Grid
	want := engine.Shard{Index: 0, Count: 2}
	if g == nil || g.Shard != want || g.Total != 6 || g.Local != 3 {
		t.Fatalf("grid provenance malformed: %+v", g)
	}
}

// TestServerDrain exercises graceful shutdown: in-flight runs are
// cancelled to a terminal state, their event streams end, new
// submissions are refused 503 draining, and /readyz flips.
func TestServerDrain(t *testing.T) {
	s := newTestServer(t, Config{Engine: task.NewEngine(engine.Config{Workers: 1})})
	srv := httptest.NewServer(s)
	defer srv.Close()

	body := `{"task":"nl2sva-human-passk","params":{"models":["gpt-4o","llama-3.1-70b"]},"options":{"samples":5,"workers":1}}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted api.SubmitResponse
	decodeBody(t, resp, &submitted)

	s.Drain()

	view := pollTerminal(t, srv.URL, submitted.ID)
	if !api.Terminal(view.Status) {
		t.Fatalf("drain left run %s in %s", submitted.ID, view.Status)
	}

	// The drained run's event stream must replay and terminate, not hang.
	streamResp, err := http.Get(srv.URL + "/v1/runs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(streamResp.Body); err != nil {
		t.Fatal(err)
	}
	streamResp.Body.Close()
	if !strings.Contains(buf.String(), `"status"`) {
		t.Fatalf("drained stream missing terminal status:\n%s", buf.String())
	}

	resp, err = http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(`{"task":"dataset-stats"}`))
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorEnvelope
	decodeBody(t, resp, &env)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != api.CodeDraining {
		t.Fatalf("post-drain submit: status %d code %q, want 503 %q", resp.StatusCode, env.Error.Code, api.CodeDraining)
	}

	rresp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz: status %d, want 503", rresp.StatusCode)
	}
}

// TestAdmissionControl fills one executor and the queue, then checks
// the quota (429) and queue-full (503) rejections, their Retry-After
// headers, and that a second identity is accounted separately. The
// executor is pinned deterministically: it runs a distributed
// submission against a worker that hangs until the test releases it.
func TestAdmissionControl(t *testing.T) {
	gate := make(chan struct{})
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-gate:
		case <-r.Context().Done():
		}
		http.Error(w, `{"error":{"code":"internal","message":"gated worker"}}`, http.StatusInternalServerError)
	}))
	defer worker.Close()
	defer close(gate) // release the handler before worker.Close waits on it

	s := newTestServer(t, Config{
		Engine:      task.NewEngine(engine.Config{Workers: 1}),
		Concurrency: 1,
		ClientQuota: 2,
		QueueDepth:  1,
	})
	srv := httptest.NewServer(s)
	defer srv.Close()
	s.registry.register(worker.URL)

	slow := `{"task":"dataset-stats","distributed":true}`
	quick := `{"task":"dataset-stats"}`

	submit := func(body, key string) (*http.Response, api.ErrorEnvelope, api.SubmitResponse) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/runs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var raw json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		var ok api.SubmitResponse
		json.Unmarshal(raw, &env) //nolint:errcheck
		json.Unmarshal(raw, &ok)  //nolint:errcheck
		return resp, env, ok
	}

	// Occupy the executor, then the queue slot: client load 2 of 2.
	resp, _, first := submit(slow, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	waitRunning(t, srv.URL, first.ID)
	resp, _, _ = submit(quick, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}

	// Same identity: quota trips first.
	resp, env, _ := submit(quick, "")
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != api.CodeQuotaExceeded {
		t.Fatalf("quota: status %d code %q", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("quota rejection missing Retry-After")
	}

	// Fresh identity: the quota is per client, but the shared queue
	// (depth 1, already holding one run) is full.
	resp, env, _ = submit(quick, "other-client")
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != api.CodeQueueFull {
		t.Fatalf("queue full: status %d code %q", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("queue-full rejection missing Retry-After")
	}
}

// waitRunning polls until a run leaves the queued state.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var view api.RunView
		getJSON(t, base+"/v1/runs/"+id, &view)
		if view.Status != api.StateQueued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never started", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResultCache submits the same request twice: the second response
// must be an immediate cache hit (200, cached) whose payload encodes
// byte-identically to the first run's, and NoCache must bypass it.
func TestResultCache(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()

	body := `{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":4}}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var first api.SubmitResponse
	decodeBody(t, resp, &first)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	firstView := pollTerminal(t, srv.URL, first.ID)
	if firstView.Status != api.StateDone {
		t.Fatalf("first run: %s (%s)", firstView.Status, firstView.Error)
	}
	firstEnc, err := json.Marshal(firstView.Run)
	if err != nil {
		t.Fatal(err)
	}

	// Identical resubmission (different parallelism on purpose — the
	// cache key canonicalizes Workers away).
	body2 := `{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":4,"workers":3}}`
	resp, err = http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	var second api.SubmitResponse
	decodeBody(t, resp, &second)
	if resp.StatusCode != http.StatusOK || !second.Cached || second.Status != api.StateDone {
		t.Fatalf("second submit not a cache hit: status %d %+v", resp.StatusCode, second)
	}
	if second.ID == first.ID {
		t.Fatalf("cache hit reused the run id")
	}
	var secondView api.RunView
	getJSON(t, srv.URL+"/v1/runs/"+second.ID, &secondView)
	if !secondView.Cached || secondView.Run == nil {
		t.Fatalf("cached view malformed: %+v", secondView)
	}
	secondEnc, err := json.Marshal(secondView.Run)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstEnc, secondEnc) {
		t.Fatalf("cached payload diverged\n--- first ---\n%s\n--- second ---\n%s", firstEnc, secondEnc)
	}

	// NoCache bypasses the store: a fresh execution, not a hit.
	body3 := `{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":4,"no_cache":true}}`
	resp, err = http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body3))
	if err != nil {
		t.Fatal(err)
	}
	var third api.SubmitResponse
	decodeBody(t, resp, &third)
	if resp.StatusCode != http.StatusAccepted || third.Cached {
		t.Fatalf("nocache submit was served from cache: status %d %+v", resp.StatusCode, third)
	}
	pollTerminal(t, srv.URL, third.ID)
}

// TestListPaginationAndFilters pages a run population with limit and
// cursor and filters it by state and task.
func TestListPaginationAndFilters(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()

	// Five terminal runs: one executed, four cache hits — plus one
	// distinct task for the task filter.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
			strings.NewReader(`{"task":"dataset-stats"}`))
		if err != nil {
			t.Fatal(err)
		}
		var sub api.SubmitResponse
		decodeBody(t, resp, &sub)
		pollTerminal(t, srv.URL, sub.ID)
	}
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub api.SubmitResponse
	decodeBody(t, resp, &sub)
	pollTerminal(t, srv.URL, sub.ID)

	// Page through all six runs two at a time.
	var pages [][]api.RunView
	cursor := ""
	for {
		url := srv.URL + "/v1/runs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page api.RunList
		getJSON(t, url, &page)
		if len(page.Runs) > 0 {
			pages = append(pages, page.Runs)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	total := 0
	var lastID string
	for _, p := range pages {
		for _, r := range p {
			if r.ID <= lastID {
				t.Fatalf("pagination order broken: %q after %q", r.ID, lastID)
			}
			lastID = r.ID
			total++
		}
	}
	if total != 6 || len(pages) != 3 {
		t.Fatalf("paged %d runs over %d pages, want 6 over 3", total, len(pages))
	}

	// Filters.
	var byTask api.RunList
	getJSON(t, srv.URL+"/v1/runs?task=nl2sva-human", &byTask)
	if len(byTask.Runs) != 1 || byTask.Runs[0].Task != "nl2sva-human" {
		t.Fatalf("task filter: %+v", byTask.Runs)
	}
	var byState api.RunList
	getJSON(t, srv.URL+"/v1/runs?state=done", &byState)
	if len(byState.Runs) != 6 {
		t.Fatalf("state filter matched %d, want 6", len(byState.Runs))
	}
	var none api.RunList
	getJSON(t, srv.URL+"/v1/runs?state=cancelled", &none)
	if len(none.Runs) != 0 {
		t.Fatalf("cancelled filter matched %d, want 0", len(none.Runs))
	}
	resp, err = http.Get(srv.URL + "/v1/runs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus state filter: status %d, want 400", resp.StatusCode)
	}
}

// TestRequestLogLines pins the bytes of both structured log lines: a
// request line and an internal-error line.
func TestRequestLogLines(t *testing.T) {
	var buf bytes.Buffer
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	s := newTestServer(t, Config{LogWriter: &buf, Now: func() time.Time { return at }})

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/runs/run-000042", nil)
	req.Header.Set("X-API-Key", "team-a")
	s.ServeHTTP(rec, req)
	s.logInternal("journal compaction failed: disk full")

	want := fmt.Sprintf(`{"bytes":%d,"client":"%s","dur_ms":0,"method":"GET","path":"/v1/runs/run-000042","status":404,"ts":"2026-01-02T03:04:05Z"}`+"\n"+
		`{"level":"error","msg":"journal compaction failed: disk full","ts":"2026-01-02T03:04:05Z"}`+"\n",
		rec.Body.Len(), clientID(req))
	if got := buf.String(); got != want {
		t.Fatalf("log lines:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsExposition checks the Prometheus text surface: known
// families present, counters moved by the work performed, and the
// exposition stable in sorted order.
func TestMetricsExposition(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()

	for i := 0; i < 2; i++ { // second submission is a cache hit
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
			strings.NewReader(`{"task":"nl2sva-human","params":{"models":["gpt-4o"]},"options":{"limit":4}}`))
		if err != nil {
			t.Fatal(err)
		}
		var sub api.SubmitResponse
		decodeBody(t, resp, &sub)
		pollTerminal(t, srv.URL, sub.ID)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()

	for _, want := range []string{
		"fveval_runs_submitted_total 2",
		`fveval_runs_total{status="done"} 1`,
		"fveval_result_cache_hits_total 1",
		"fveval_result_cache_misses_total 1",
		"fveval_queue_depth 0",
		"fveval_runs_inflight 0",
		"fveval_workers_live 0",
		`fveval_admission_rejected_total{reason="quota"} 0`,
		"fveval_run_wall_seconds_count 1",
		"fveval_solver_wall_seconds_bucket",
		"fveval_equiv_cache_hits_total",
		"fveval_sim_refutations_total",
		"fveval_shard_retries_total 0",
		"fveval_journal_compactions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The formal backend ran real checks, so the solver histogram has
	// observations.
	if !strings.Contains(text, "fveval_solver_wall_seconds_count") {
		t.Fatalf("solver wall histogram missing:\n%s", text)
	}
	var names []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			names = append(names, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("families not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

// fakeClock is a mutable test clock shared with Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestWorkerRegistryLifecycle drives register/heartbeat/evict over
// HTTP against a TTL clock the test controls.
func TestWorkerRegistryLifecycle(t *testing.T) {
	clock := &fakeClock{t: time.UnixMilli(1_700_000_000_000)}
	s := newTestServer(t, Config{WorkerTTL: 10 * time.Second, Now: clock.now})
	srv := httptest.NewServer(s)
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()

	lease, err := cl.RegisterWorker(ctx, "http://worker-a:9000")
	if err != nil {
		t.Fatal(err)
	}
	if lease.TTLMS != 10_000 || lease.IntervalMS == 0 {
		t.Fatalf("lease malformed: %+v", lease)
	}
	// Re-registering the same URL keeps the identity.
	lease2, err := cl.RegisterWorker(ctx, "http://worker-a:9000")
	if err != nil || lease2.ID != lease.ID {
		t.Fatalf("re-register changed identity: %+v vs %+v (%v)", lease, lease2, err)
	}
	if _, err := cl.RegisterWorker(ctx, "http://worker-b:9000"); err != nil {
		t.Fatal(err)
	}

	workers, err := cl.Workers(ctx)
	if err != nil || len(workers) != 2 {
		t.Fatalf("workers: %+v (%v)", workers, err)
	}
	if workers[0].URL != "http://worker-a:9000" || workers[1].URL != "http://worker-b:9000" {
		t.Fatalf("fleet not URL-sorted: %+v", workers)
	}

	// Within TTL: heartbeat refreshes.
	clock.advance(8 * time.Second)
	if err := cl.Heartbeat(ctx, lease.ID); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	// worker-b never heartbeats: TTL lapses, the next listing evicts it.
	clock.advance(8 * time.Second)
	workers, err = cl.Workers(ctx)
	if err != nil || len(workers) != 1 || workers[0].ID != lease.ID {
		t.Fatalf("eviction: %+v (%v)", workers, err)
	}

	// A lapsed worker's heartbeat is a 404 not_found: re-register.
	clock.advance(11 * time.Second)
	err = cl.Heartbeat(ctx, lease.ID)
	if !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("lapsed heartbeat error %v, want %s", err, api.CodeNotFound)
	}

	// Explicit deregistration.
	lease3, err := cl.RegisterWorker(ctx, "http://worker-c:9000")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.DeregisterWorker(ctx, lease3.ID); err != nil {
		t.Fatal(err)
	}
	workers, err = cl.Workers(ctx)
	if err != nil || len(workers) != 0 {
		t.Fatalf("post-deregister fleet: %+v (%v)", workers, err)
	}

	// The eviction counter made it to /metrics.
	var buf bytes.Buffer
	s.writeMetrics(&buf)
	if !strings.Contains(buf.String(), "fveval_workers_evicted_total 2") {
		t.Fatalf("metrics missing eviction count:\n%s", buf.String())
	}
}

// TestClusterDistributedRun is the in-process cluster smoke over the
// rewritten client-backed HTTPRunner: two fvevald workers — one of
// which crashes its first submission — and coordinator output must be
// byte-identical to a single-engine run.
func TestClusterDistributedRun(t *testing.T) {
	a := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}))
	defer a.Close()
	healthy := newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})})
	var injected atomic.Bool
	injected.Store(true)
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && injected.CompareAndSwap(true, false) {
			http.Error(w, `{"error":{"code":"internal","message":"injected worker crash"}}`, http.StatusInternalServerError)
			return
		}
		healthy.ServeHTTP(w, r)
	}))
	defer b.Close()

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

	var jobs atomic.Int64
	coord, err := dist.New(
		[]dist.Runner{dist.NewHTTPRunner(a.URL), dist.NewHTTPRunner(b.URL)},
		dist.Options{Progress: func(ev dist.Event) {
			if ev.Type == dist.EventJob {
				jobs.Add(1)
			}
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	gotEnc, err := res.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("distributed Encode diverged\n--- dist ---\n%s\n--- single ---\n%s", gotEnc, wantEnc)
	}
	if got, want := res.Run.Report.Render(), base.Report.Render(); got != want {
		t.Fatalf("distributed Render diverged\n--- dist ---\n%s\n--- single ---\n%s", got, want)
	}
	if res.Retries < 1 {
		t.Fatalf("injected failure was never retried: %+v", res)
	}
	// 2 models x 6 instances, streamed once each across the fleet.
	if jobs.Load() != 12 {
		t.Fatalf("streamed %d merged job events, want 12", jobs.Load())
	}
}

// TestDistributedViaRegistry is the acceptance flow for the worker
// registry: two workers register themselves with a coordinator (no
// static fleet flags anywhere), a distributed submission fans out
// across them through the coordinator's own dist integration, and the
// merged report is byte-identical to a single-engine run.
func TestDistributedViaRegistry(t *testing.T) {
	coordSrv := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}))
	defer coordSrv.Close()
	w1 := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}))
	defer w1.Close()
	w2 := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}))
	defer w2.Close()

	ctx := context.Background()
	cl := client.New(coordSrv.URL)

	// Distributed submissions against an empty registry are refused.
	_, err := cl.Submit(ctx, api.Submission{
		Request:     task.Request{Task: "nl2sva-human", Options: engine.Config{Limit: 6}},
		Distributed: true,
	})
	if !api.IsCode(err, api.CodeNoWorkers) {
		t.Fatalf("empty-registry submit error %v, want %s", err, api.CodeNoWorkers)
	}

	for _, w := range []string{w1.URL, w2.URL} {
		lease, err := cl.RegisterWorker(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Heartbeat(ctx, lease.ID); err != nil {
			t.Fatal(err)
		}
	}

	req := task.Request{
		Task:    "nl2sva-human",
		Params:  task.Params{Models: []string{"gpt-4o", "llama-3-8b"}},
		Options: engine.Config{Limit: 6, Workers: 2},
	}
	base, err := task.NewEngine(engine.Config{}).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := base.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}

	var jobs atomic.Int64
	view, err := cl.Run(ctx, api.Submission{Request: req, Distributed: true},
		func(task.Event) { jobs.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != api.StateDone || view.Run == nil {
		t.Fatalf("distributed run: %+v", view)
	}
	gotEnc, err := view.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("registry-distributed Encode diverged\n--- dist ---\n%s\n--- single ---\n%s", gotEnc, wantEnc)
	}
	if jobs.Load() == 0 {
		t.Fatalf("no forwarded job events from the distributed run")
	}
}
