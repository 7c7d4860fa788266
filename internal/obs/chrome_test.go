package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenSpans builds the deterministic span set behind the Chrome
// trace fixture: a service-shaped run (queue wait, then a job with a
// generation and a SAT ramp step) on a fixed 0.5ms-step clock.
func goldenSpans() []SpanData {
	rec := NewRecorderClock(0, fakeClock(1_000_000_000, 500_000))
	root := rec.Start("run", 0)
	q := root.Child("queue")
	q.SetPhase(PhaseQueue)
	q.End()
	job := root.Child("job")
	job.SetStr("model", "gpt-4").SetInt("sample", 0)
	gen := job.Child("generate")
	gen.SetPhase(PhasePrompt)
	gen.End()
	ramp := job.Child("ramp")
	ramp.SetPhase(PhaseSAT).SetInt("bound", 4).SetStr("verdict", "unsat")
	ramp.End()
	job.SetBool("func", true)
	job.End()
	root.End()
	spans, _ := rec.Snapshot()
	return spans
}

// TestChromeTraceGolden pins the exported bytes: the Chrome trace is a
// pure function of its input spans, so any drift in sorting, lane
// assignment, rebasing, or arg encoding shows up as a byte diff.
func TestChromeTraceGolden(t *testing.T) {
	got, err := ChromeTrace(goldenSpans())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("Chrome trace drifted from golden:\n%s", got)
	}

	// The fixture must also be structurally loadable: every event a
	// complete ("X") event with µs timing and a positive lane.
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.TraceEvents) != 5 {
		t.Fatalf("fixture has %d events, want 5", len(parsed.TraceEvents))
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Tid < 1 {
			t.Errorf("malformed event %+v", ev)
		}
	}
}

// TestChromeTraceEmpty keeps the zero-span export loadable.
func TestChromeTraceEmpty(t *testing.T) {
	data, err := ChromeTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Errorf("empty trace lacks traceEvents: %s", data)
	}
}
