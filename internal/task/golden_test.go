package task

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fveval/internal/engine"
)

// goldenCases pins the unified Report wire format and its rendered
// text with one task per paper table, each on a small deterministic
// slice: testdata/<case>.json holds the encoded report and
// testdata/<case>.txt its Render output. Regenerate both with
//
//	UPDATE_GOLDEN=1 go test ./internal/task -run TestGolden
type goldenCase struct {
	file    string
	request Request
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"table1_nl2sva_human.json", Request{
			Task:    "nl2sva-human",
			Params:  Params{Models: []string{"gpt-4o"}},
			Options: engine.Config{Limit: 4, Workers: 1},
		}},
		{"table2_nl2sva_human_passk.json", Request{
			Task:    "nl2sva-human-passk",
			Params:  Params{Models: []string{"gpt-4o"}},
			Options: engine.Config{Limit: 3, Samples: 3, Workers: 1},
		}},
		{"table3_nl2sva_machine.json", Request{
			Task:    "nl2sva-machine",
			Params:  Params{Models: []string{"gpt-4o"}, Count: 6},
			Options: engine.Config{Workers: 1},
		}},
		{"table4_nl2sva_machine_passk.json", Request{
			Task:    "nl2sva-machine-passk",
			Params:  Params{Models: []string{"gpt-4o"}, Count: 5},
			Options: engine.Config{Samples: 2, Workers: 1},
		}},
		{"table5_design2sva.json", Request{
			Task:    "design2sva",
			Params:  Params{Models: []string{"gpt-4o"}},
			Options: engine.Config{Limit: 2, Samples: 2, Workers: 1},
		}},
		{"table6_dataset_stats.json", Request{
			Task: "dataset-stats",
		}},
		{"table_agr.json", Request{
			Task:    "agr",
			Params:  Params{Models: []string{"gpt-4o"}},
			Options: engine.Config{Limit: 6, Samples: 4, Workers: 1},
		}},
		{"figure_r_refinement.json", Request{
			Task:    "refinement",
			Params:  Params{Models: []string{"gpt-4o"}, Count: 5, Rounds: []int{0, 2}},
			Options: engine.Config{Samples: 2, Workers: 1},
		}},
	}
}

// textGolden names the rendered-text golden beside a report golden.
func textGolden(file string) string {
	return strings.TrimSuffix(file, ".json") + ".txt"
}

// compareGolden checks got against testdata/file byte-for-byte, or
// rewrites the file when UPDATE_GOLDEN is set.
func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", file, got, want)
	}
}

// TestGoldenReports runs each pinned request and compares the encoded
// unified Report and its rendered text byte-for-byte against their
// golden files.
func TestGoldenReports(t *testing.T) {
	e := NewEngine(engine.Config{})
	for _, c := range goldenCases() {
		t.Run(c.file, func(t *testing.T) {
			run, err := e.Run(context.Background(), c.request)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run.Report.Encode()
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, c.file, append(got, '\n'))
			compareGolden(t, textGolden(c.file), []byte(run.Report.Render()))
		})
	}
}

// TestGoldenRoundTrip decodes every golden file and re-encodes it,
// demanding byte identity: the unified Report must survive a JSON
// round trip with nothing lost or reshaped.
func TestGoldenRoundTrip(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			rep, err := DecodeReport(data)
			if err != nil {
				t.Fatal(err)
			}
			again, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			again = append(again, '\n')
			if !bytes.Equal(data, again) {
				t.Errorf("round trip not identical for %s:\n--- decoded+encoded ---\n%s", c.file, again)
			}
			// A decoded report must render the same text as the run
			// that produced it.
			text, err := os.ReadFile(filepath.Join("testdata", textGolden(c.file)))
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got := rep.Render(); got != string(text) {
				t.Errorf("decoded report renders differently from %s:\n--- got ---\n%s\n--- want ---\n%s",
					textGolden(c.file), got, text)
			}
		})
	}
}
