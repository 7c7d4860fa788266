package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// counterLine selects the stderr lines the counter files pin.
var counterLine = regexp.MustCompile(`^(equiv cache|formal backend|sim prefilter):`)

// TestPinnedOutputs runs every command whose output testdata pins, each
// on a fresh engine as its own process would, and compares the bytes:
// stdout against all.txt and table2_samples3.txt, and the counter
// lines of the one-worker runs (deterministic only there) against the
// *_counters.txt files. With UPDATE_GOLDEN=1 it rewrites each file
// with the bytes it would compare (make regenerate).
func TestPinnedOutputs(t *testing.T) {
	cases := []struct {
		file     string
		args     []string
		counters bool // compare the stderr counter lines, not stdout
	}{
		{"all.txt", []string{"-all"}, false},
		{"table2_samples3.txt", []string{"-table", "2", "-samples", "3", "-limit", "4"}, false},
		{"table1_counters.txt", []string{"-table", "1", "-workers", "1"}, true},
		{"table3_counters.txt", []string{"-table", "3", "-workers", "1"}, true},
		{"table5_counters.txt", []string{"-table", "5", "-workers", "1"}, true},
		{"agr_counters.txt", []string{"-task", "agr", "-workers", "1"}, true},
		{"refinement_counters.txt", []string{"-task", "refinement", "-workers", "1"}, true},
	}
	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.file, ".txt"), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := cli(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("fveval %s: exit %d: %s", strings.Join(c.args, " "), code, stderr.String())
			}
			got := stdout.String()
			if c.counters {
				var lines []string
				for _, l := range strings.SplitAfter(stderr.String(), "\n") {
					if counterLine.MatchString(l) {
						lines = append(lines, l)
					}
				}
				got = strings.Join(lines, "")
			}
			path := filepath.Join("testdata", c.file)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
			}
			if got != string(want) {
				t.Errorf("fveval %s differs from testdata/%s:\n%s", strings.Join(c.args, " "), c.file, lineDiff(string(want), got))
			}
		})
	}
}

// TestNegativeSizesExit2 checks that a negative -count is refused
// with exit status 2 before any task runs, as a negative -samples is.
func TestNegativeSizesExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "3", "-count", "-5", "-limit", "2"},
		{"-table", "2", "-samples", "-2", "-limit", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code != 2 || stdout.Len() > 0 {
			t.Errorf("fveval %s: exit %d with %d bytes of output, want exit 2 and none", strings.Join(args, " "), code, stdout.Len())
		}
	}
}

// lineDiff lists the lines where got and want part, up to ten.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(w), len(g)) && shown < 10; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			shown++
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
