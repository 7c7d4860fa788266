package task

import (
	"context"
	"reflect"
	"testing"

	"fveval/internal/engine"
)

// TestOptionsNeverPoisonSharedMemos runs a request with verdict-shaping
// options and then a default request through one task engine. The two
// share the engine's memo pool, so unless every judgment memo keys on
// those options, the first run's verdicts answer the second run's
// queries. The default run must match a fresh default engine row for
// row, and each variant must really change some verdict, or the check
// shows nothing.
func TestOptionsNeverPoisonSharedMemos(t *testing.T) {
	cases := []struct {
		name    string
		task    string
		base    engine.Config
		variant engine.Config
	}{
		{"nl2sva max_bound", "nl2sva-human", engine.Config{Limit: 40}, engine.Config{Limit: 40, MaxBound: 1}},
		{"design2sva budget", "design2sva", engine.Config{Samples: 2}, engine.Config{Samples: 2, Budget: 1}},
		{"agr budget", "agr", engine.Config{Limit: 16, Samples: 2}, engine.Config{Limit: 16, Samples: 2, Budget: 1}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := NewEngine(tc.base).Run(ctx, Request{Task: tc.task})
			if err != nil {
				t.Fatal(err)
			}
			shared := NewEngine(tc.base)
			variant, err := shared.Run(ctx, Request{Task: tc.task, Options: tc.variant})
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(variant.Report.Groups, fresh.Report.Groups) {
				t.Fatalf("options %+v change no verdict", tc.variant)
			}
			def, err := shared.Run(ctx, Request{Task: tc.task})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(def.Report.Groups, fresh.Report.Groups) {
				t.Fatalf("default run after an options %+v run on one engine:\n got:\n%s\nwant:\n%s",
					tc.variant, def.Report.Render(), fresh.Report.Render())
			}
		})
	}
}
