package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/rtl"
)

// Overlay differentials: a row's overlay of its base must give the
// whole-file elaboration's verdict and, when both elaborate, the same
// system under a canonical dump.

// dumpSystem renders everything a judge reads from a system: inputs
// and registers (with reset values) in order, nets, widths and
// constants by name, and the assertion, assumption and cover strings.
func dumpSystem(sys *rtl.System) string {
	var b strings.Builder
	for _, in := range sys.Inputs {
		fmt.Fprintf(&b, "input %s %d\n", in.Name, in.Width)
	}
	for _, r := range sys.Regs {
		fmt.Fprintf(&b, "reg %s %d init %d next %s\n", r.Name, r.Width, r.Init, r.Next)
	}
	nets := slices.Clone(sys.Nets)
	slices.SortFunc(nets, func(x, y rtl.Net) int { return strings.Compare(x.Name, y.Name) })
	for _, n := range nets {
		fmt.Fprintf(&b, "net %s %d = %s\n", n.Name, n.Width, n.Expr)
	}
	for _, name := range slices.Sorted(maps.Keys(sys.Widths)) {
		fmt.Fprintf(&b, "width %s %d\n", name, sys.Widths[name])
	}
	for _, name := range slices.Sorted(maps.Keys(sys.Consts)) {
		fmt.Fprintf(&b, "const %s %+v\n", name, sys.Consts[name])
	}
	for _, a := range sys.Asserts {
		fmt.Fprintf(&b, "assert %s\n", a)
	}
	for _, a := range sys.Assumes {
		fmt.Fprintf(&b, "assume %s\n", a)
	}
	for _, a := range sys.Covers {
		fmt.Fprintf(&b, "cover %s\n", a)
	}
	return b.String()
}

// checkOverlay compares the row's system for snippet with the
// whole-file system and reports whether the overlay served it.
func checkOverlay(t testing.TB, id string, row *DesignRow, snippet string) (overlaid bool) {
	t.Helper()
	got, gerr := row.system(snippet)
	want, werr := row.wholeFile(snippet)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: row error %v, whole-file error %v\n%s", id, gerr, werr, snippet)
	}
	if row.base != nil {
		_, oerr := row.base.Overlay(snippet)
		overlaid = oerr != rtl.ErrNoOverlay
	}
	if werr != nil {
		return overlaid
	}
	if g, w := dumpSystem(got), dumpSystem(want); g != w {
		t.Fatalf("%s: overlay system differs from the whole-file system\n%s\n--- overlay\n%s--- whole file\n%s", id, snippet, g, w)
	}
	if base, _ := row.base.Overlay(""); overlaid && got.Base() != base {
		t.Fatalf("%s: an overlay does not name the row's base\n%s", id, snippet)
	}
	return overlaid
}

// TestOverlayMatchesWholeFile runs every Sweep96 row of both kinds
// with every distinct proxy snippet a default design2sva run judges,
// and every AGR row's base.
func TestOverlayMatchesWholeFile(t *testing.T) {
	overlaid, total := 0, 0
	for _, kind := range []string{"pipeline", "fsm"} {
		for _, inst := range rtlgen.Sweep96(kind) {
			row := NewDesignRow(inst)
			for _, code := range rowResponses(llm.DesignModels(), llm.BuildDesignPrompt(inst)) {
				total++
				if checkOverlay(t, inst.ID, row, code) {
					overlaid++
				}
			}
			if row.base == nil {
				t.Fatalf("%s: the row built no base", inst.ID)
			}
		}
	}
	for _, inst := range helpergen.Sweep() {
		row := NewHelperRow(inst)
		checkOverlay(t, inst.ID, row, "")
		first, _ := row.system("")
		if again, _ := row.system(""); row.base == nil || again != first {
			t.Fatalf("%s: helper sets are not judged on the row's base", inst.ID)
		}
	}
	t.Logf("%d of %d Design2SVA candidates judged on an overlay", overlaid, total)
	if overlaid < total {
		t.Fatalf("%d of %d candidates took the whole-file path", total-overlaid, total)
	}
}

// TestOverlayFallbacks covers each snippet an overlay cannot
// reproduce: every one must take the whole-file path.
func TestOverlayFallbacks(t *testing.T) {
	inst := rtlgen.Sweep96("pipeline")[0]
	const a = "assert property (@(posedge clk) in_vld |-> 1'b1);"
	for name, snippet := range map[string]string{
		"macro use":       "logic [`WIDTH-1:0] w; assign w = in_data;\n" + a,
		"directive":       "`define W 4\n" + a,
		"always":          "logic r; always @(posedge clk) r <= in_vld;\nassert property (@(posedge clk) r |-> 1'b1);",
		"instance":        "stage u0 (.clk(clk));\n" + a,
		"parameter":       "localparam L = 2;\n" + a,
		"assume":          "assume property (@(posedge clk) in_vld);\n" + a,
		"cover":           "cover property (@(posedge clk) in_vld);\n" + a,
		"redeclared port": "logic in_vld;\n" + a,
		"redeclared net":  "logic [3:0] tb_reset;\n" + a,
		"driven port":     "assign in_vld = 1'b0;\n" + a,
		"driven net bit":  "assign tb_reset[0] = 1'b0;\n" + a,
		"input":           "input extra;\n" + a,
		"no parse alone":  "endmodule\nmodule extra_tb();\n" + a,
	} {
		row := NewDesignRow(inst)
		if checkOverlay(t, name, row, snippet) {
			t.Errorf("%s: the overlay served a snippet it cannot reproduce", name)
		}
	}

	// Macro layouts. The row parses design, bench and snippet as one
	// file, so its base expands each macro as the whole file does; only
	// a snippet that uses or defines a macro itself falls back.
	redefined := *inst // the bench redefines the design's WIDTH
	redefined.Bench = strings.Replace(inst.Bench, "`define WIDTH ", "`define WIDTH 1", 1)
	late := *inst // a design macro only the bench defines
	late.Design = "`define LATE 1\n" + strings.Replace(inst.Design, "`WIDTH", "`LATE_W", 1)
	late.Bench = "`define LATE_W 4\n" + inst.Bench
	for _, c := range []struct {
		name     string
		inst     *rtlgen.Instance
		snippet  string
		overlaid bool
	}{
		{"bench redefines WIDTH", &redefined, a, true},
		{"bench redefines WIDTH, macro use", &redefined, "logic [`WIDTH-1:0] w; assign w = in_data;\n" + a, false},
		{"snippet directive", inst, "`define WIDTH 2\n" + a, false},
		{"design macro from the bench", &late, a, true},
	} {
		if got := checkOverlay(t, c.name, NewDesignRow(c.inst), c.snippet); got != c.overlaid {
			t.Errorf("%s: overlaid %v, want %v", c.name, got, c.overlaid)
		}
	}
	// The redefinition reaches the design, or the case tests nothing.
	plain, _ := NewDesignRow(inst).system("")
	wide, err := NewDesignRow(&redefined).system("")
	if err != nil || dumpSystem(plain) == dumpSystem(wide) {
		t.Fatalf("the bench's WIDTH does not reach the design (error %v)", err)
	}
}

// TestOverlaySurfacesErrors covers snippets the overlay serves whose
// whole-file elaboration fails: each must fail on the overlay too,
// including the combinational loops and undriven reads that only the
// reset-cycle evaluation of every net finds.
func TestOverlaySurfacesErrors(t *testing.T) {
	inst := rtlgen.Sweep96("pipeline")[0]
	for name, snippet := range map[string]string{
		"undeclared read":    "logic w; assign w = nope;",
		"undeclared target":  "assign nope = in_vld;",
		"undeclared wire":    "logic w; assign w = v; logic v; assign v = in_vld;",
		"combinational loop": "logic x, y; assign x = y; assign y = x;",
		"undriven read":      "logic u, v; assign v = u;",
		"division by zero":   "logic [3:0] q; assign q = in_data / 4'd0;",
		"multiply driven":    "logic [1:0] m; assign m = 2'd0; assign m[0] = in_vld;",
		"wide declaration":   "logic [999999:0] w;",
		"reversed range":     "logic [0:3] w;",
		"no parse alone":     "assert property (@(posedge clk) in_vld |-> ;",
		"open comment":       "/* assert property (@(posedge clk) in_vld);",
	} {
		row := NewDesignRow(inst)
		if !checkOverlay(t, name, row, snippet) {
			t.Errorf("%s: the snippet took the whole-file path", name)
		}
		if _, err := row.system(snippet); err == nil {
			t.Errorf("%s: elaborated, want an error", name)
		}
	}
	// Multiply fragmented helper nets elaborate, and their fragment
	// nets rewrite reads of their bits.
	row := NewDesignRow(inst)
	if !checkOverlay(t, "fragments", row, "logic [1:0] m; assign m[0] = in_vld; assign m[1] = out_vld; logic z; assign z = m[1];\nassert property (@(posedge clk) z |-> out_vld);") {
		t.Error("fragments: the snippet took the whole-file path")
	}
}
