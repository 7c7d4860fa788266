package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fveval/internal/engine"
	"fveval/internal/obs"
	"fveval/internal/service/api"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

// traceRequest is the small run the trace tests submit.
func traceRequest() task.Request {
	return task.Request{
		Task:    "nl2sva-human",
		Params:  task.Params{Models: []string{"gpt-4o"}},
		Options: engine.Config{Limit: 4, Workers: 2},
	}
}

// spanAttr finds a span attribute by key (the zero Attr when absent).
func spanAttr(d obs.SpanData, key string) obs.Attr {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a
		}
	}
	return obs.Attr{}
}

// spanIndex builds lookup tables over a fetched span dump.
func spanIndex(t *testing.T, spans []obs.SpanData) (byID map[uint64]obs.SpanData, counts map[string]int) {
	t.Helper()
	byID = make(map[uint64]obs.SpanData, len(spans))
	counts = map[string]int{}
	roots := 0
	for _, d := range spans {
		if _, dup := byID[d.ID]; dup {
			t.Fatalf("duplicate span id %d", d.ID)
		}
		byID[d.ID] = d
		counts[d.Name]++
		if d.Parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want 1", roots)
	}
	for _, d := range spans {
		if d.Parent != 0 {
			if _, ok := byID[d.Parent]; !ok {
				t.Fatalf("span %d %q has unknown parent %d", d.ID, d.Name, d.Parent)
			}
		}
	}
	return byID, counts
}

// TestTraceEndpointLocal submits a traced run against the local
// engine, fetches its span dump, and pins: one rooted tree with the
// queue span and per-job spans, a queue-phase profile entry on the
// run, byte-identical report output vs. an untraced submission, and
// 404 for runs that did not opt in.
func TestTraceEndpointLocal(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}))
	defer srv.Close()
	ctx := context.Background()
	cl := client.New(srv.URL)

	// Oracle: a fresh single engine, independent of the server's state
	// (the server's engine memoizes judgments across runs, which would
	// mask the judge-phase spans on a second submission).
	base, err := task.NewEngine(engine.Config{}).Run(ctx, traceRequest())
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := base.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}

	req := traceRequest()
	req.Trace = &obs.TraceContext{}
	traced, err := cl.Run(ctx, api.Submission{Request: req}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Cached {
		t.Fatalf("traced submission was served from the result cache")
	}
	gotEnc, err := traced.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("tracing changed report bytes\n--- traced ---\n%s\n--- plain ---\n%s", gotEnc, wantEnc)
	}
	if traced.Run.Stats.Profile.Queue.Count != 1 {
		t.Errorf("queue phase %+v, want exactly one sample", traced.Run.Stats.Profile.Queue)
	}
	if traced.Run.Stats.Profile.Parse.Count == 0 {
		t.Errorf("profile missing engine phases: %+v", traced.Run.Stats.Profile)
	}

	spans, dropped, err := cl.Trace(ctx, traced.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d spans under default capacity", dropped)
	}
	byID, counts := spanIndex(t, spans)
	if counts["run"] != 1 || counts["queue"] != 1 {
		t.Fatalf("span counts %v, want one run and one queue span", counts)
	}
	if counts["job"] != traced.Run.Stats.Jobs {
		t.Errorf("%d job spans, want %d", counts["job"], traced.Run.Stats.Jobs)
	}
	for _, d := range spans {
		if d.Name == "queue" && d.Phase != obs.PhaseQueue {
			t.Errorf("queue span phase %q", d.Phase)
		}
		if d.Name == "job" && byID[d.Parent].Name != "run" {
			t.Errorf("job span parented under %q, want run", byID[d.Parent].Name)
		}
	}

	// The trace export must convert cleanly.
	if _, err := obs.ChromeTrace(spans); err != nil {
		t.Fatal(err)
	}

	// An untraced submission has no trace to serve — even when (as
	// here) the traced run populated the result cache for it.
	plain, err := cl.Run(ctx, api.Submission{Request: traceRequest()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Trace(ctx, plain.ID); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("untraced run trace error %v, want %s", err, api.CodeNotFound)
	}
}

// TestTraceEndpointDistributed is the cross-worker propagation e2e:
// two HTTP workers join the registry, a traced distributed run fans
// out across them, and the coordinator's trace endpoint serves one
// stitched tree containing the remote workers' spans, with the report
// still byte-identical to a single-engine run.
func TestTraceEndpointDistributed(t *testing.T) {
	coordSrv := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}))
	defer coordSrv.Close()
	w1 := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}))
	defer w1.Close()
	w2 := httptest.NewServer(newTestServer(t, Config{Engine: task.NewEngine(engine.Config{})}))
	defer w2.Close()

	ctx := context.Background()
	cl := client.New(coordSrv.URL)
	for _, w := range []string{w1.URL, w2.URL} {
		if _, err := cl.RegisterWorker(ctx, w); err != nil {
			t.Fatal(err)
		}
	}

	req := traceRequest()
	base, err := task.NewEngine(engine.Config{}).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := base.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}

	req.Trace = &obs.TraceContext{}
	view, err := cl.Run(ctx, api.Submission{Request: req, Distributed: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotEnc, err := view.Run.Report.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("traced distributed Encode diverged\n--- dist ---\n%s\n--- single ---\n%s", gotEnc, wantEnc)
	}

	spans, _, err := cl.Trace(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	byID, counts := spanIndex(t, spans)
	if counts["shard"] == 0 || counts["shard-run"] == 0 {
		t.Fatalf("distributed trace lacks worker spans: %v", counts)
	}
	// The coordinator hedges stragglers, and only a shard's winning
	// attempt (ok) adopts its worker's spans: a hedged run has more
	// shard spans than worker roots, never a superseded one with a root.
	won := 0
	for _, d := range spans {
		if d.Name == "shard" && spanAttr(d, "ok").Bool {
			won++
		}
	}
	if counts["shard-run"] != won {
		t.Errorf("%d adopted worker roots vs %d winning shard spans", counts["shard-run"], won)
	}
	if counts["job"] != view.Run.Stats.Jobs {
		t.Errorf("%d job spans across workers, want %d", counts["job"], view.Run.Stats.Jobs)
	}
	for _, d := range spans {
		if d.Name != "shard-run" {
			continue
		}
		parent := byID[d.Parent]
		if parent.Name != "shard" {
			t.Errorf("worker root %d under %q, want shard", d.ID, parent.Name)
		}
		if spanAttr(parent, "err").Str == "superseded" {
			t.Errorf("superseded shard span %d adopted worker root %d", parent.ID, d.ID)
		}
	}
	// Merged profile = shard phases + the coordinator's queue wait.
	prof := view.Run.Stats.Profile
	if prof.Queue.Count != 1 || prof.Prompt.Count == 0 {
		t.Errorf("distributed profile %+v, want one queue sample and worker phases", prof)
	}
}

// TestPprofAndRuntimeMetrics covers the profiling satellites: pprof
// handlers mount only behind Config.Pprof, and the scrape carries the
// queue-wait histogram and the Go runtime gauges.
func TestPprofAndRuntimeMetrics(t *testing.T) {
	plain := httptest.NewServer(newTestServer(t, Config{}))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without the flag: %d", resp.StatusCode)
	}

	prof := httptest.NewServer(newTestServer(t, Config{Pprof: true}))
	defer prof.Close()
	resp, err = http.Get(prof.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof heap scrape: %d", resp.StatusCode)
	}

	cl := client.New(prof.URL)
	if _, err := cl.Run(context.Background(), api.Submission{Request: traceRequest()}, nil); err != nil {
		t.Fatal(err)
	}
	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fveval_queue_wait_seconds_count 1",
		`fveval_queue_wait_seconds_bucket{le="+Inf"} 1`,
		"fveval_go_goroutines ",
		"fveval_go_heap_bytes ",
		"fveval_go_gc_pause_seconds_total ",
		"fveval_go_sched_latency_p50_seconds ",
		"fveval_go_sched_latency_p99_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}
