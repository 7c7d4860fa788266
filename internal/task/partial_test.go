package task

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fveval/internal/engine"
)

// mergeCase pins one registry task with a small deterministic slice;
// the property tests below shard each case every which way and demand
// byte-identical reports back.
type mergeCase struct {
	name string
	req  Request
}

func mergeCases() []mergeCase {
	return []mergeCase{
		{"table1", Request{
			Task:    "nl2sva-human",
			Params:  Params{Models: []string{"gpt-4o", "llama-3-8b"}},
			Options: engine.Config{Limit: 7, Workers: 2},
		}},
		{"table2", Request{
			Task:    "nl2sva-human-passk",
			Params:  Params{Models: []string{"gpt-4o"}},
			Options: engine.Config{Limit: 5, Samples: 2, Workers: 2},
		}},
		{"table3", Request{
			Task:    "nl2sva-machine",
			Params:  Params{Models: []string{"gpt-4o"}, Count: 9},
			Options: engine.Config{Workers: 2},
		}},
		{"table4", Request{
			Task:    "nl2sva-machine-passk",
			Params:  Params{Models: []string{"gpt-4o"}, Count: 7},
			Options: engine.Config{Samples: 2, Workers: 2},
		}},
		{"table5", Request{
			Task:    "design2sva",
			Params:  Params{Models: []string{"gpt-4o"}},
			Options: engine.Config{Limit: 2, Samples: 2, Workers: 2},
		}},
		{"table6", Request{Task: "dataset-stats"}},
		{"table_agr", Request{
			Task:    "agr",
			Params:  Params{Models: []string{"gpt-4o"}},
			Options: engine.Config{Limit: 5, Samples: 2, Workers: 2},
		}},
		{"figure_r", Request{
			Task:    "refinement",
			Params:  Params{Models: []string{"gpt-4o"}, Count: 6, Rounds: []int{0, 1}},
			Options: engine.Config{Samples: 2, Workers: 2},
		}},
		{"figure6", Request{
			Task:    "bleu-correlation",
			Params:  Params{Models: []string{"gpt-4o"}},
			Options: engine.Config{Limit: 6, Workers: 2},
		}},
	}
}

// runShards evaluates one shard per fresh engine — separate memo
// pools, like real workers — and round-trips every partial through
// its JSON wire encoding to prove nothing is lost in flight.
func runShards(t *testing.T, req Request, n int) []*Partial {
	t.Helper()
	partials := make([]*Partial, 0, n)
	for i := 0; i < n; i++ {
		sub := req
		sub.Options.Shard = engine.Shard{Index: i, Count: n}
		p, err := NewEngine(engine.Config{}).RunPartial(context.Background(), sub)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		data, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := DecodePartial(data)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, rt)
	}
	return partials
}

// reportBytes is the pair the merge invariant quantifies over.
func reportBytes(t *testing.T, r *Report) ([]byte, string) {
	t.Helper()
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc, r.Render()
}

// TestMergeReportsByteIdentical is the merge invariant: for every
// registry task, MergeReports over any permutation of any shard
// partition (counts 1, 2, 4, 7) equals the unsharded report
// byte-for-byte, in both Encode and Render output.
func TestMergeReportsByteIdentical(t *testing.T) {
	for _, c := range mergeCases() {
		t.Run(c.name, func(t *testing.T) {
			base, err := NewEngine(engine.Config{}).Run(context.Background(), c.req)
			if err != nil {
				t.Fatal(err)
			}
			wantEnc, wantText := reportBytes(t, base.Report)

			counts := []int{1, 2, 4, 7}
			spec, err := Lookup(c.req.Task)
			if err != nil {
				t.Fatal(err)
			}
			if !spec.Shardable() {
				counts = []int{1} // grid-less tasks run whole
			}
			rng := rand.New(rand.NewSource(42))
			for _, n := range counts {
				partials := runShards(t, c.req, n)
				for trial := 0; trial < 3; trial++ {
					perm := append([]*Partial(nil), partials...)
					rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
					merged, err := MergeRuns(perm)
					if err != nil {
						t.Fatalf("n=%d trial %d: %v", n, trial, err)
					}
					gotEnc, gotText := reportBytes(t, merged.Report)
					if !bytes.Equal(gotEnc, wantEnc) {
						t.Fatalf("n=%d trial %d: merged Encode diverged\n--- merged ---\n%s\n--- unsharded ---\n%s", n, trial, gotEnc, wantEnc)
					}
					if gotText != wantText {
						t.Fatalf("n=%d trial %d: merged Render diverged\n--- merged ---\n%s\n--- unsharded ---\n%s", n, trial, gotText, wantText)
					}
					if merged.Stats.Jobs != base.Stats.Jobs {
						t.Errorf("n=%d: merged stats count %d jobs, unsharded %d", n, merged.Stats.Jobs, base.Stats.Jobs)
					}
				}
			}
		})
	}
}

// TestMergeAfterShardRetry models the coordinator's failure path: one
// shard's first attempt dies mid-run (context cancellation), a fresh
// engine retries it, and the merged report must still be
// byte-identical to the unsharded run.
func TestMergeAfterShardRetry(t *testing.T) {
	req := Request{
		Task:    "nl2sva-human-passk",
		Params:  Params{Models: []string{"gpt-4o"}},
		Options: engine.Config{Limit: 5, Samples: 2, Workers: 2},
	}
	base, err := NewEngine(engine.Config{}).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, wantText := reportBytes(t, base.Report)

	const n = 3
	partials := make([]*Partial, 0, n)
	for i := 0; i < n; i++ {
		sub := req
		sub.Options.Shard = engine.Shard{Index: i, Count: n}
		if i == 1 {
			// First attempt: cancelled after two jobs, as a worker crash
			// or timeout would leave it.
			ctx, cancel := context.WithCancel(context.Background())
			jobs := 0
			attempt := sub
			attempt.Progress = func(Event) {
				if jobs++; jobs == 2 {
					cancel()
				}
			}
			if _, err := NewEngine(engine.Config{}).RunPartial(ctx, attempt); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled shard attempt returned %v", err)
			}
			cancel()
		}
		p, err := NewEngine(engine.Config{}).RunPartial(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	merged, err := MergeReports(partials)
	if err != nil {
		t.Fatal(err)
	}
	gotEnc, gotText := reportBytes(t, merged)
	if !bytes.Equal(gotEnc, wantEnc) || gotText != wantText {
		t.Fatalf("post-retry merge diverged from unsharded run")
	}
}

// TestMergeRejectsBrokenPartitions pins the validation surface:
// incomplete, duplicated, or inconsistent partitions must error, not
// silently mis-merge.
func TestMergeRejectsBrokenPartitions(t *testing.T) {
	req := Request{
		Task:    "nl2sva-human",
		Params:  Params{Models: []string{"gpt-4o"}},
		Options: engine.Config{Limit: 6, Workers: 2},
	}
	partials := runShards(t, req, 3)

	cases := []struct {
		name string
		in   []*Partial
		want string
	}{
		{"empty", nil, "zero partials"},
		{"missing shard", partials[:2], "shards"},
		{"duplicate shard", []*Partial{partials[0], partials[1], partials[1]}, "partition"},
	}
	for _, c := range cases {
		if _, err := MergeReports(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}

	// A shard from a different task or parameterization must be refused.
	other := runShards(t, Request{
		Task:    "nl2sva-human",
		Params:  Params{Models: []string{"llama-3-8b"}},
		Options: engine.Config{Limit: 6, Workers: 2},
	}, 3)
	mixed := []*Partial{partials[0], partials[1], other[2]}
	if _, err := MergeReports(mixed); err == nil || !strings.Contains(err.Error(), "params") {
		t.Errorf("mixed params: got %v", err)
	}
	otherOpts := runShards(t, Request{
		Task:    "nl2sva-human",
		Params:  Params{Models: []string{"gpt-4o"}},
		Options: engine.Config{Limit: 4, Workers: 2},
	}, 3)
	mixed = []*Partial{partials[0], partials[1], otherOpts[2]}
	if _, err := MergeReports(mixed); err == nil || !strings.Contains(err.Error(), "options") {
		t.Errorf("mixed options: got %v", err)
	}
}

// TestRunRejectsShardedRequest pins that Run refuses a shard-scoped
// request — set on the request or on the engine's defaults — instead
// of rendering one slice's table as the task's; RunPartial takes it.
func TestRunRejectsShardedRequest(t *testing.T) {
	sharded := engine.Config{Limit: 6, Workers: 2, Shard: engine.Shard{Index: 1, Count: 3}}
	req := Request{Task: "nl2sva-human", Params: Params{Models: []string{"gpt-4o"}}}

	viaRequest := req
	viaRequest.Options = sharded
	if _, err := NewEngine(engine.Config{}).Run(context.Background(), viaRequest); err == nil || !strings.Contains(err.Error(), "RunPartial") {
		t.Errorf("sharded request: got %v, want an error naming RunPartial", err)
	}
	if _, err := NewEngine(sharded).Run(context.Background(), req); err == nil || !strings.Contains(err.Error(), "RunPartial") {
		t.Errorf("sharded engine default: got %v, want an error naming RunPartial", err)
	}
	if _, err := NewEngine(engine.Config{}).RunPartial(context.Background(), viaRequest); err != nil {
		t.Errorf("RunPartial on the same request: %v", err)
	}
}
