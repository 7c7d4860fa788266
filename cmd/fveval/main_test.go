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
// *_counters.txt files.
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
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
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
			if got != string(want) {
				t.Errorf("fveval %s differs from testdata/%s:\n%s", strings.Join(c.args, " "), c.file, lineDiff(string(want), got))
			}
		})
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
