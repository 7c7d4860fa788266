package core

import (
	"strings"

	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/mc"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// DesignRow is the judging context of one Design2SVA or AGR instance
// row (DESIGN.md §7, "Row base"): every candidate of a row is the same
// design and testbench plus a few lines of model text, so the row
// parses and elaborates the design+bench system once, on its first
// candidate, and judges each candidate on an overlay of that base. A
// candidate the overlay cannot reproduce takes the whole-file path,
// which parses and elaborates the whole file again. The row also holds
// its model-checking context, which shares one session pair across the
// overlays of the base. A DesignRow is not safe for concurrent use; it
// dies with its row.
type DesignRow struct {
	design, bench    string
	target           string // spliced in ahead of every snippet (AGR)
	dutTop, benchTop string
	mc               *mc.Design

	built bool
	base  *rtl.Base // nil: every candidate takes the whole-file path
}

// NewDesignRow returns the context of a Design2SVA row.
func NewDesignRow(inst *rtlgen.Instance) *DesignRow {
	return &DesignRow{design: inst.Design, bench: inst.Bench, dutTop: inst.DUTTop, benchTop: inst.BenchTop, mc: mc.NewDesign()}
}

// NewHelperRow returns the context of an AGR row: its base is the
// design and the bench with the stuck target spliced in, the system
// every helper set of the row is checked against.
func NewHelperRow(inst *helpergen.Instance) *DesignRow {
	return &DesignRow{design: inst.Design, bench: inst.Bench, target: inst.Target,
		dutTop: inst.DUTTop, benchTop: inst.BenchTop, mc: mc.NewDesign()}
}

// splice is the text a snippet puts before the bench's endmodule: the
// row's target, if any, then the snippet.
func (r *DesignRow) splice(snippet string) string {
	switch {
	case r.target == "":
		return snippet
	case snippet == "":
		return r.target
	}
	return r.target + "\n" + snippet
}

// overlayProbe is spliced in where candidates go when the row builds
// its base. Finding it, unlabeled, as the last item of the testbench
// module proves the splice point a clean item boundary there: the text
// before it leaves the lexer between tokens and the parser at module
// level, and the module ends right after it. Any snippet that parses
// as module items on its own then parses the same way in place.
const overlayProbe = "assert property (@(posedge clk) overlay_probe);"

// build parses the file with the probe spliced in and elaborates the
// base, once.
func (r *DesignRow) build() {
	if r.built {
		return
	}
	r.built = true
	f, err := r.parse(overlayProbe)
	if err != nil {
		return
	}
	tb := f.Module(r.benchTop)
	if tb == nil || tb != f.Modules[len(f.Modules)-1] || len(tb.Items) == 0 {
		return
	}
	last, ok := tb.Items[len(tb.Items)-1].(*rtl.AssertItem)
	probe, _ := sva.ParseAssertion(overlayProbe)
	if !ok || last.A.Label != "" || last.A.String() != probe.String() {
		return
	}
	stripped, n := *tb, len(tb.Items)-1
	stripped.Items = tb.Items[:n:n]
	f.Modules[len(f.Modules)-1] = &stripped
	if base, err := rtl.ElaborateBase(f, r.dutTop, r.benchTop); err == nil {
		r.base = base
	}
}

// system elaborates the row's design and bench with snippet spliced in
// before the bench's endmodule: an overlay of the row's base when the
// snippet allows one, else the whole file (the reference the overlay
// reproduces).
func (r *DesignRow) system(snippet string) (*rtl.System, error) {
	r.build()
	if r.base != nil {
		sys, err := r.base.Overlay(snippet)
		if err != rtl.ErrNoOverlay {
			return sys, err
		}
	}
	return r.wholeFile(snippet)
}

// wholeFile parses and elaborates the whole file for snippet.
func (r *DesignRow) wholeFile(snippet string) (*rtl.System, error) {
	f, err := r.parse(snippet)
	if err != nil {
		return nil, err
	}
	return rtl.ElaborateBound(f, r.dutTop, r.benchTop, nil)
}

// parse parses the design followed by the bench with snippet spliced
// in before its endmodule.
func (r *DesignRow) parse(snippet string) (*rtl.File, error) {
	return rtl.Parse(r.design + "\n" + insertBeforeEndmodule(r.bench, r.splice(snippet)))
}

// insertBeforeEndmodule splices a snippet into the testbench body.
func insertBeforeEndmodule(bench, snippet string) string {
	idx := strings.LastIndex(bench, "endmodule")
	if idx < 0 {
		return bench + "\n" + snippet
	}
	return bench[:idx] + "\n" + snippet + "\n" + bench[idx:]
}
