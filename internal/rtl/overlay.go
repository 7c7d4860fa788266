package rtl

import (
	"errors"
	"maps"
	"slices"
	"strings"

	"fveval/internal/sv"
	"fveval/internal/sva"
)

// Base is a bound design+testbench system kept ready for overlays: the
// elaborated System plus the elaboration state after the testbench's
// last item, so a snippet that would be spliced in at that point can
// be elaborated on its own (DESIGN.md §7, "Row base").
type Base struct {
	sys   *System
	e     *elab
	reset []map[string]uint64 // signal values of each reset cycle
}

// ErrNoOverlay reports a snippet an overlay cannot reproduce exactly;
// the caller must elaborate the whole file instead.
var ErrNoOverlay = errors.New("rtl: snippet needs whole-file elaboration")

// ElaborateBase is ElaborateBound, keeping what Overlay needs.
func ElaborateBase(f *File, dutTop, tbTop string) (*Base, error) {
	e, err := bindBench(f, dutTop, tbTop, nil)
	if err != nil {
		return nil, err
	}
	sys, reset, err := e.finish(tbTop)
	if err != nil {
		return nil, err
	}
	return &Base{sys: sys, e: e, reset: reset}, nil
}

// Overlay elaborates snippet as if it were spliced in after the
// testbench's last item (the caller guarantees the splice point is a
// clean item boundary of the testbench module, and the testbench the
// file's last module) and returns the resulting system, sharing the
// base's inputs, registers, reset values and nets. It reproduces the
// whole-file system and its errors for snippets made of assertions,
// new signal declarations (logic, wire, reg) and continuous assigns to
// those signals. For a parse failure it reproduces the verdict, an
// error wherever the whole file has one, not the error text: a snippet
// without a backtick or "module" that does not parse as module items
// on its own cannot parse in place either, since only closing the
// testbench early or opening a new module could make it. Anything else
// returns ErrNoOverlay: a backtick (macro use or directive), text that
// mentions "module" and does not parse as items on its own, an always
// block, an instance, a parameter, a generate loop, an assume or cover,
// a declaration of a name the base already has, or a driver of one of
// its signals. An empty snippet returns the base system itself.
func (b *Base) Overlay(snippet string) (*System, error) {
	if strings.Contains(snippet, "`") {
		return nil, ErrNoOverlay
	}
	items, err := parseItems(snippet)
	if err != nil {
		if strings.Contains(snippet, "module") {
			return nil, ErrNoOverlay
		}
		return nil, err
	}
	if len(items) == 0 {
		return b.sys, nil
	}
	var o *elab // state for declarations and assigns, made on demand
	sc := &scope{params: b.e.consts, genvars: map[string]uint64{}, top: true}
	var asserts []*sva.Assertion
	for _, it := range items {
		switch v := it.(type) {
		case *AssertItem:
			if v.A.KindOrAssert() != "assert" {
				return nil, ErrNoOverlay
			}
			asserts = append(asserts, v.A)
		case *Decl:
			if (v.Kind != "logic" && v.Kind != "wire" && v.Kind != "reg") || b.declared(v.Name) {
				return nil, ErrNoOverlay
			}
			if o == nil {
				o = b.child()
			}
			if err := o.decl(sc, v); err != nil {
				return nil, err
			}
		case *Assign:
			if b.drives(v.LHS) {
				return nil, ErrNoOverlay
			}
			if o == nil {
				o = b.child()
			}
			if err := o.contAssign(sc, v); err != nil {
				return nil, err
			}
		default:
			return nil, ErrNoOverlay
		}
	}
	sys := *b.sys
	sys.base = b.sys
	sys.Asserts = append(slices.Clip(b.sys.Asserts), asserts...)
	if o != nil {
		if err := b.addNets(&sys, o); err != nil {
			return nil, err
		}
	}
	return &sys, nil
}

// child returns elaboration state that continues from the base's:
// declarations and widths are copies the snippet may extend, and only
// the snippet's own fragments are collected.
func (b *Base) child() *elab {
	return &elab{
		file:   b.e.file,
		widths: maps.Clone(b.e.widths),
		consts: b.e.consts,
		frags:  map[string][]fragment{},
		decls:  maps.Clone(b.e.decls),
	}
}

// declared reports whether the base knows name as a signal, a width or
// a bound testbench port.
func (b *Base) declared(name string) bool {
	_, d := b.e.decls[name]
	_, w := b.e.widths[name]
	_, p := b.e.bindPorts[name]
	return d || w || p
}

// drives reports whether an assignment target names a base signal.
func (b *Base) drives(lhs sva.Expr) bool {
	switch v := lhs.(type) {
	case *sva.Index:
		lhs = v.X
	case *sva.Select:
		lhs = v.X
	}
	id, ok := lhs.(*sva.Ident)
	return ok && b.declared(id.Name)
}

// addNets builds the snippet's nets the way finish builds the whole
// file's, appends them to the base's, and evaluates them in both reset
// cycles, where the whole-file elaboration would report a
// combinational loop, a read of an undriven name or a division by zero
// among them.
func (b *Base) addNets(sys *System, o *elab) error {
	sys.Widths = o.widths
	own := &System{Widths: o.widths}
	fragRanges := maps.Clone(b.e.fragRanges)
	if err := o.buildNets(own, fragRanges); err != nil {
		return err
	}
	if len(fragRanges) > 0 {
		for i := range own.Nets {
			own.Nets[i].Expr = rewriteFragReads(own.Nets[i].Expr, fragRanges)
		}
	}
	if len(own.Nets) == 0 {
		return nil
	}
	base := b.sys
	sys.Nets = append(slices.Clip(base.Nets), own.Nets...)
	sys.netIdx = maps.Clone(base.netIdx)
	for i := len(base.Nets); i < len(sys.Nets); i++ {
		sys.netIdx[sys.Nets[i].Name] = i
	}
	in := &Interp{Sys: sys}
	for _, cycle := range b.reset {
		vals := maps.Clone(cycle)
		for _, n := range own.Nets {
			if _, err := in.netValue(n.Name, vals, map[string]bool{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseItems parses src as a sequence of module items.
func parseItems(src string) ([]Item, error) {
	toks, err := sv.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &rparser{toks: toks}
	var out []Item
	for !p.at(sv.EOF, "") {
		items, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		out = append(out, items...)
	}
	return out, nil
}
