package task

import (
	"context"
	"maps"
	"testing"

	"fveval/internal/engine"
	"fveval/internal/obs"
)

// TestFormalSpanCounts pins how many spans of each formal kind a small
// traced one-worker run records. Every prefilter round and solver call
// of a check records one span, so a change to the query path that adds
// or drops one shows here as a count, not only as a shift in the
// benchmark's per-layer step counters.
func TestFormalSpanCounts(t *testing.T) {
	cases := []struct {
		task  string
		limit int
		want  map[string]int
	}{
		// The run also makes 11 disable-iff comparisons. Their
		// conditions are identical, so the difference folds to
		// constant false and they record no span.
		{"nl2sva-human", 4, map[string]int{"ramp": 14, "sim": 24}},
		{"design2sva", 2, map[string]int{"bmc": 13, "induct": 10, "sim": 30}},
		// A safety question the row's verdict memo has decided (the
		// same property under the same set of assumed lemmas) records
		// no span: it is answered without a check.
		{"agr", 2, map[string]int{"bmc": 72, "induct": 23, "sim": 122}},
	}
	for _, tc := range cases {
		t.Run(tc.task, func(t *testing.T) {
			rec := obs.NewRecorder(0)
			root := rec.Start("run", 0)
			ctx := obs.ContextWithSpan(obs.NewContext(context.Background(), rec), root)
			eng := NewEngine(engine.Config{Workers: 1, Limit: tc.limit})
			if _, err := eng.Run(ctx, Request{Task: tc.task}); err != nil {
				t.Fatal(err)
			}
			root.End()
			spans, dropped := rec.Snapshot()
			if dropped != 0 {
				t.Fatalf("dropped %d spans", dropped)
			}
			got := map[string]int{}
			for _, d := range spans {
				switch d.Name {
				case "sim", "ramp", "bmc", "induct", "lasso":
					got[d.Name]++
				}
			}
			if !maps.Equal(got, tc.want) {
				t.Fatalf("span counts %v, want %v", got, tc.want)
			}
		})
	}
}
