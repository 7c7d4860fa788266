package rtl

import (
	"fmt"
	"sort"

	"fveval/internal/ltl"
	"fveval/internal/sva"
)

// Sig is a named signal with a width.
type Sig struct {
	Name  string
	Width int
}

// Reg is a state element: Next is its next-state expression over the
// flat namespace; Init is its post-reset value.
type Reg struct {
	Name  string
	Width int
	Init  uint64
	Next  sva.Expr
}

// Net is a combinational signal defined by an expression.
type Net struct {
	Name  string
	Width int
	Expr  sva.Expr
}

// System is the flat elaborated design: free inputs, registers with
// next-state functions, combinational nets, named constants, and the
// assertions found in the source.
type System struct {
	Top     string
	Inputs  []Sig
	Regs    []Reg
	Nets    []Net
	Widths  map[string]int
	Consts  map[string]ltl.ConstVal
	Asserts []*sva.Assertion
	// Assumes constrain the input stimuli during proofs (FV
	// assumptions, paper §2); Covers are parsed and retained but not
	// evaluated.
	Assumes []*sva.Assertion
	Covers  []*sva.Assertion

	netIdx map[string]int
	regIdx map[string]int
	inIdx  map[string]int
	// base is the system this one overlays (Base.Overlay); nil for a
	// system elaborated from a whole file.
	base *System
}

// Base returns the system s overlays, or s itself when s was
// elaborated from a whole file. An overlay shares its base's inputs,
// registers (with their reset values), constants and nets, so both
// unroll to the same transition relation; it may add nets of its own.
func (s *System) Base() *System {
	if s.base != nil {
		return s.base
	}
	return s
}

// NetByName returns the net definition, if any.
func (s *System) NetByName(name string) (*Net, bool) {
	if i, ok := s.netIdx[name]; ok {
		return &s.Nets[i], true
	}
	return nil, false
}

// RegByName returns the register, if any.
func (s *System) RegByName(name string) (*Reg, bool) {
	if i, ok := s.regIdx[name]; ok {
		return &s.Regs[i], true
	}
	return nil, false
}

// IsInput reports whether name is a free input.
func (s *System) IsInput(name string) bool {
	_, ok := s.inIdx[name]
	return ok
}

// Sigs exposes the signal environment for assertion checking: every
// signal plus the top module's constants.
func (s *System) Sigs() (map[string]int, map[string]ltl.ConstVal) {
	return s.Widths, s.Consts
}

func (s *System) index() {
	s.netIdx = map[string]int{}
	for i := range s.Nets {
		s.netIdx[s.Nets[i].Name] = i
	}
	s.regIdx = map[string]int{}
	for i := range s.Regs {
		s.regIdx[s.Regs[i].Name] = i
	}
	s.inIdx = map[string]int{}
	for i := range s.Inputs {
		s.inIdx[s.Inputs[i].Name] = i
	}
}

// ElabError is an elaboration failure (name resolution, width, drive
// conflicts) — the tool-compile failure class in the paper's flow.
type ElabError struct{ Reason string }

func (e *ElabError) Error() string { return "rtl: elaboration: " + e.Reason }

func errf(format string, args ...interface{}) error {
	return &ElabError{Reason: fmt.Sprintf(format, args...)}
}

// Elaborate flattens the named top module (with optional parameter
// overrides) into a System.
func Elaborate(f *File, top string, overrides map[string]uint64) (*System, error) {
	m := f.Module(top)
	if m == nil {
		return nil, errf("module %q not found", top)
	}
	e := newElab(f)
	if err := e.module(m, "", overrides, true); err != nil {
		return nil, err
	}
	sys, _, err := e.finish(top)
	return sys, err
}

// ElaborateBound elaborates a design-under-test and a testbench module
// into one system: the DUT lives under the "dut." prefix and each
// testbench port binds to the same-named DUT port (DUT inputs become
// shared free inputs; DUT outputs drive the testbench net). This is
// the Design2SVA evaluation topology: the testbench must not touch DUT
// internals, and references to undeclared names fail elaboration.
func ElaborateBound(f *File, dutTop, tbTop string, overrides map[string]uint64) (*System, error) {
	e, err := bindBench(f, dutTop, tbTop, overrides)
	if err != nil {
		return nil, err
	}
	sys, _, err := e.finish(tbTop)
	return sys, err
}

// bindBench elaborates the DUT and the testbench items of
// ElaborateBound, leaving the elaboration state ready for finish.
func bindBench(f *File, dutTop, tbTop string, overrides map[string]uint64) (*elab, error) {
	dut := f.Module(dutTop)
	if dut == nil {
		return nil, errf("design module %q not found", dutTop)
	}
	tb := f.Module(tbTop)
	if tb == nil {
		return nil, errf("testbench module %q not found", tbTop)
	}
	e := newElab(f)
	if err := e.module(dut, "dut.", overrides, false); err != nil {
		return nil, err
	}
	// Determine DUT port directions.
	dutDirs, err := portDirections(dut)
	if err != nil {
		return nil, err
	}
	e.bindPorts = map[string]string{} // tb port -> dut signal
	e.bindDirs = map[string]string{}
	for _, p := range tb.Ports {
		if dir, ok := dutDirs[p]; ok {
			e.bindPorts[p] = "dut." + p
			e.bindDirs[p] = dir
		}
	}
	if err := e.module(tb, "", overrides, true); err != nil {
		return nil, err
	}
	return e, nil
}

func portDirections(m *Module) (map[string]string, error) {
	dirs := map[string]string{}
	var walk func(items []Item)
	walk = func(items []Item) {
		for _, it := range items {
			if d, ok := it.(*Decl); ok {
				switch d.Kind {
				case "input", "output", "inout":
					dirs[d.Name] = d.Kind
				}
			}
			if g, ok := it.(*GenFor); ok {
				walk(g.Body)
			}
		}
	}
	walk(m.Items)
	return dirs, nil
}

// fragment is a driven bit range of a base signal.
type fragment struct {
	hi, lo int
	expr   sva.Expr // driver (for assigns) or reg-reference (for flops)
	isReg  bool
}

type declInfo struct {
	kind    string
	width   int    // flat packed width
	chunk   int    // inner chunk width for 2-D packed (0 if 1-D)
	elems   int    // unpacked entries (0: not an array)
	base    uint64 // the unpacked dimension's low bound
	isInput bool
}

type elab struct {
	file *File

	inputs  []Sig
	regs    []Reg
	nets    []Net
	widths  map[string]int
	consts  map[string]ltl.ConstVal
	asserts []*sva.Assertion
	assumes []*sva.Assertion
	covers  []*sva.Assertion

	frags map[string][]fragment // base signal -> driven fragments
	decls map[string]*declInfo  // flat name -> declaration

	bindPorts map[string]string // port alias map for ElaborateBound
	bindDirs  map[string]string

	// fragRanges records, per multiply fragmented signal, the net of
	// each fragment (set by finish), so reads of a sub-range can bypass
	// the whole-word concat (avoiding false word-level combinational
	// loops, e.g. a pipeline bus whose high chunk feeds back from an
	// instance driven by the low chunk).
	fragRanges map[string][]fragRef

	regCount int
}

func newElab(f *File) *elab {
	return &elab{
		file:   f,
		widths: map[string]int{},
		consts: map[string]ltl.ConstVal{},
		frags:  map[string][]fragment{},
		decls:  map[string]*declInfo{},
	}
}

// scope is the per-module-instance elaboration scope.
type scope struct {
	prefix  string
	params  map[string]ltl.ConstVal
	genvars map[string]uint64
	top     bool
}

func (e *elab) module(m *Module, prefix string, overrides map[string]uint64, top bool) error {
	sc := &scope{prefix: prefix, params: map[string]ltl.ConstVal{}, genvars: map[string]uint64{}, top: top}
	// header params
	for _, p := range m.Params {
		if err := e.defineParam(sc, p, overrides); err != nil {
			return err
		}
	}
	return e.items(sc, m.Items, overrides)
}

func (e *elab) defineParam(sc *scope, p Param, overrides map[string]uint64) error {
	if ov, ok := overrides[p.Name]; ok && !p.IsLocal {
		w := 32
		if n, isNum := p.Default.(*sva.Num); isNum && n.Width > 0 {
			w = n.Width
		}
		sc.params[p.Name] = ltl.ConstVal{Value: ov, Width: w}
	} else {
		v, w, err := e.constEval(sc, p.Default)
		if err != nil {
			return errf("parameter %s: %v", p.Name, err)
		}
		sc.params[p.Name] = ltl.ConstVal{Value: v, Width: w}
	}
	if sc.top {
		e.consts[p.Name] = sc.params[p.Name]
	}
	return nil
}

func (e *elab) items(sc *scope, items []Item, overrides map[string]uint64) error {
	for _, it := range items {
		switch v := it.(type) {
		case *paramItem:
			if err := e.defineParam(sc, v.P, overrides); err != nil {
				return err
			}
		case *Decl:
			if err := e.decl(sc, v); err != nil {
				return err
			}
		case *Assign:
			if err := e.contAssign(sc, v); err != nil {
				return err
			}
		case *Always:
			if err := e.always(sc, v); err != nil {
				return err
			}
		case *GenFor:
			if err := e.genFor(sc, v, overrides); err != nil {
				return err
			}
		case *Instance:
			if err := e.instance(sc, v); err != nil {
				return err
			}
		case *AssertItem:
			if sc.prefix != "" {
				return errf("assertions inside instantiated modules are not supported")
			}
			a, err := e.rewriteAssertion(sc, v.A)
			if err != nil {
				return err
			}
			switch a.KindOrAssert() {
			case "assume":
				e.assumes = append(e.assumes, a)
			case "cover":
				e.covers = append(e.covers, a)
			default:
				e.asserts = append(e.asserts, a)
			}
		default:
			return errf("unsupported module item %T", it)
		}
	}
	return nil
}

func (e *elab) decl(sc *scope, d *Decl) error {
	if d.Kind == "genvar" {
		return nil // bound at loop elaboration
	}
	width := 1
	chunk := 0
	switch len(d.Packed) {
	case 0:
	case 1:
		w, err := e.rangeWidth(sc, d.Packed[0])
		if err != nil {
			return errf("signal %s: %v", d.Name, err)
		}
		width = w
	case 2:
		outer, err := e.rangeWidth(sc, d.Packed[0])
		if err != nil {
			return errf("signal %s: %v", d.Name, err)
		}
		inner, err := e.rangeWidth(sc, d.Packed[1])
		if err != nil {
			return errf("signal %s: %v", d.Name, err)
		}
		width = outer * inner
		chunk = inner
		if width > ltl.MaxWidth {
			return errf("signal %s: wider than %d bits", d.Name, ltl.MaxWidth)
		}
	default:
		return errf("signal %s: more than two packed dimensions unsupported", d.Name)
	}
	elems, base := 0, uint64(0)
	for _, r := range d.Unpacked {
		var err error
		if elems, base, err = e.span(sc, r, true); err != nil {
			return errf("signal %s: %v", d.Name, err)
		}
	}
	name := sc.prefix + d.Name
	isInput := d.Kind == "input"
	// Bound testbench ports alias DUT signals instead of declaring.
	if sc.prefix == "" && e.bindPorts != nil {
		if dutSig, ok := e.bindPorts[d.Name]; ok {
			dir := e.bindDirs[d.Name]
			if dir == "input" {
				// shared free input: tb name is the input; DUT side is
				// aliased during DUT elaboration below (DUT declared
				// its own input dut.X; alias it to X).
				if _, exists := e.decls[name]; !exists {
					e.declare(name, &declInfo{kind: "input", width: width, chunk: chunk, isInput: true})
					e.inputs = append(e.inputs, Sig{Name: name, Width: width})
				}
				// dut.X becomes a net aliasing X
				if di, ok := e.decls[dutSig]; ok && di.isInput {
					di.isInput = false
					e.removeInput(dutSig)
					e.addFragment(dutSig, fragment{hi: width - 1, lo: 0, expr: &sva.Ident{Name: name}})
				}
				return nil
			}
			// DUT output: tb port is a net aliasing the DUT signal.
			if _, exists := e.decls[name]; !exists {
				e.declare(name, &declInfo{kind: "wire", width: width, chunk: chunk})
				e.addFragment(name, fragment{hi: width - 1, lo: 0, expr: &sva.Ident{Name: dutSig}})
			}
			return nil
		}
	}
	if len(d.Unpacked) > 0 {
		if len(d.Unpacked) > 1 {
			return errf("signal %s: multi-dimensional unpacked arrays unsupported", d.Name)
		}
		for i := 0; i < elems; i++ {
			en := fmt.Sprintf("%s$%d", name, i)
			e.declare(en, &declInfo{kind: d.Kind, width: width, chunk: chunk})
		}
		e.decls[name] = &declInfo{kind: d.Kind, width: width, chunk: chunk, elems: elems, base: base}
		return nil
	}
	if prev, exists := e.decls[name]; exists {
		// Port directions declared once in the header and again in the
		// body are tolerated when consistent.
		if prev.width == width {
			return nil
		}
		return errf("signal %s redeclared with different width", name)
	}
	e.declare(name, &declInfo{kind: d.Kind, width: width, chunk: chunk, isInput: isInput})
	if isInput {
		e.inputs = append(e.inputs, Sig{Name: name, Width: width})
	}
	return nil
}

func (e *elab) declare(name string, di *declInfo) {
	e.decls[name] = di
	e.widths[name] = di.width
}

func (e *elab) removeInput(name string) {
	for i := range e.inputs {
		if e.inputs[i].Name == name {
			e.inputs = append(e.inputs[:i], e.inputs[i+1:]...)
			return
		}
	}
}

// rangeWidth resolves a packed range, which must run high to low.
func (e *elab) rangeWidth(sc *scope, r Range) (int, error) {
	n, _, err := e.span(sc, r, false)
	return n, err
}

// span resolves a range to its element count and low bound. An
// unpacked dimension may run in either direction (mem [0:15] and
// mem [15:0] both hold 16 entries); a packed range only high to low.
func (e *elab) span(sc *scope, r Range, unpacked bool) (int, uint64, error) {
	hi, _, err := e.constEval(sc, r.Hi)
	if err != nil {
		return 0, 0, err
	}
	lo, _, err := e.constEval(sc, r.Lo)
	if err != nil {
		return 0, 0, err
	}
	if int64(hi) < int64(lo) {
		if !unpacked {
			return 0, 0, fmt.Errorf("reversed range [%d:%d]", hi, lo)
		}
		hi, lo = lo, hi
	}
	if hi-lo >= ltl.MaxWidth {
		return 0, 0, fmt.Errorf("range [%d:%d] wider than %d bits", hi, lo, ltl.MaxWidth)
	}
	return int(hi-lo) + 1, lo, nil
}

// element names the flattened signal holding entry idx of the array
// name; false when idx lies outside the declared dimension.
func (di *declInfo) element(name string, idx uint64) (string, bool) {
	if idx < di.base || idx-di.base >= uint64(di.elems) {
		return "", false
	}
	return fmt.Sprintf("%s$%d", name, idx-di.base), true
}

func (e *elab) contAssign(sc *scope, a *Assign) error {
	name, hi, lo, err := e.resolveLHS(sc, a.LHS)
	if err != nil {
		return err
	}
	rhs, err := e.rewrite(sc, a.RHS)
	if err != nil {
		return err
	}
	e.addFragment(name, fragment{hi: hi, lo: lo, expr: e.coerce(rhs, hi-lo+1)})
	return nil
}

func (e *elab) addFragment(name string, f fragment) {
	e.frags[name] = append(e.frags[name], f)
}

// coerce wraps an expression so its self-determined width is exactly w
// (package ltl computes self-determined widths during bit-blasting).
func (e *elab) coerce(expr sva.Expr, w int) sva.Expr {
	return &sva.WidthCast{X: expr, W: w}
}

// resolveLHS resolves an assignment target to a flat signal fragment.
func (e *elab) resolveLHS(sc *scope, lhs sva.Expr) (string, int, int, error) {
	switch v := lhs.(type) {
	case *sva.Ident:
		name := sc.prefix + v.Name
		di, ok := e.decls[name]
		if !ok {
			return "", 0, 0, errf("assignment to undeclared signal %q", v.Name)
		}
		if di.elems > 0 {
			return "", 0, 0, errf("whole-array assignment to %q unsupported", v.Name)
		}
		return name, di.width - 1, 0, nil
	case *sva.Index:
		base, ok := v.X.(*sva.Ident)
		if !ok {
			return "", 0, 0, errf("unsupported assignment target %s", lhs.String())
		}
		name := sc.prefix + base.Name
		di, ok := e.decls[name]
		if !ok {
			return "", 0, 0, errf("assignment to undeclared signal %q", base.Name)
		}
		idx, _, err := e.constEval(sc, v.Idx)
		if err != nil {
			return "", 0, 0, errf("dynamic index in assignment target %s", lhs.String())
		}
		if di.elems > 0 {
			en, ok := di.element(name, idx)
			if !ok {
				return "", 0, 0, errf("array index %d out of range for %s", idx, base.Name)
			}
			return en, di.width - 1, 0, nil
		}
		if di.chunk > 0 {
			lo := int(idx) * di.chunk
			return name, lo + di.chunk - 1, lo, nil
		}
		return name, int(idx), int(idx), nil
	case *sva.Select:
		base, ok := v.X.(*sva.Ident)
		if !ok {
			return "", 0, 0, errf("unsupported assignment target %s", lhs.String())
		}
		name := sc.prefix + base.Name
		if _, ok := e.decls[name]; !ok {
			return "", 0, 0, errf("assignment to undeclared signal %q", base.Name)
		}
		hi, _, err := e.constEval(sc, v.Hi)
		if err != nil {
			return "", 0, 0, err
		}
		lo, _, err := e.constEval(sc, v.Lo)
		if err != nil {
			return "", 0, 0, err
		}
		return name, int(hi), int(lo), nil
	}
	return "", 0, 0, errf("unsupported assignment target %s", lhs.String())
}

// rewrite resolves an expression into the flat namespace: parameters
// and genvars fold to literals, identifiers gain the instance prefix,
// array and 2-D packed indexing lower to element selects or mux
// chains.
func (e *elab) rewrite(sc *scope, expr sva.Expr) (sva.Expr, error) {
	switch v := expr.(type) {
	case *sva.Ident:
		if gv, ok := sc.genvars[v.Name]; ok {
			return numLit(gv, 32), nil
		}
		if c, ok := sc.params[v.Name]; ok {
			return numLit(c.Value, c.Width), nil
		}
		name := sc.prefix + v.Name
		if _, ok := e.decls[name]; !ok {
			return nil, errf("undeclared identifier %q", v.Name)
		}
		return &sva.Ident{Name: name}, nil
	case *sva.Num:
		return v, nil
	case *sva.Unary:
		x, err := e.rewrite(sc, v.X)
		if err != nil {
			return nil, err
		}
		return &sva.Unary{Op: v.Op, X: x}, nil
	case *sva.Binary:
		x, err := e.rewrite(sc, v.X)
		if err != nil {
			return nil, err
		}
		y, err := e.rewrite(sc, v.Y)
		if err != nil {
			return nil, err
		}
		return &sva.Binary{Op: v.Op, X: x, Y: y}, nil
	case *sva.Cond:
		c, err := e.rewrite(sc, v.C)
		if err != nil {
			return nil, err
		}
		t, err := e.rewrite(sc, v.T)
		if err != nil {
			return nil, err
		}
		f, err := e.rewrite(sc, v.E)
		if err != nil {
			return nil, err
		}
		return &sva.Cond{C: c, T: t, E: f}, nil
	case *sva.Call:
		// Compile-time functions fold here; runtime sampled-value
		// functions stay for assertion contexts.
		if v.Name == "$clog2" && len(v.Args) == 1 {
			if val, _, err := e.constEval(sc, v.Args[0]); err == nil {
				return numLit(uint64(ltl.Clog2(val)), 32), nil
			}
		}
		c := &sva.Call{Name: v.Name}
		for _, a := range v.Args {
			ra, err := e.rewrite(sc, a)
			if err != nil {
				return nil, err
			}
			c.Args = append(c.Args, ra)
		}
		return c, nil
	case *sva.Concat:
		out := &sva.Concat{}
		for _, p := range v.Parts {
			rp, err := e.rewrite(sc, p)
			if err != nil {
				return nil, err
			}
			out.Parts = append(out.Parts, rp)
		}
		return out, nil
	case *sva.Repl:
		cnt, _, err := e.constEval(sc, v.Count)
		if err != nil {
			return nil, errf("replication count: %v", err)
		}
		val, err := e.rewrite(sc, v.Value)
		if err != nil {
			return nil, err
		}
		return &sva.Repl{Count: numLit(cnt, 32), Value: val}, nil
	case *sva.Index:
		return e.rewriteIndex(sc, v)
	case *sva.Select:
		x, err := e.rewrite(sc, v.X)
		if err != nil {
			return nil, err
		}
		hi, _, err := e.constEval(sc, v.Hi)
		if err != nil {
			return nil, errf("part-select bound: %v", err)
		}
		lo, _, err := e.constEval(sc, v.Lo)
		if err != nil {
			return nil, errf("part-select bound: %v", err)
		}
		return &sva.Select{X: x, Hi: numLit(hi, 32), Lo: numLit(lo, 32)}, nil
	case *sva.WidthCast:
		x, err := e.rewrite(sc, v.X)
		if err != nil {
			return nil, err
		}
		return &sva.WidthCast{X: x, W: v.W}, nil
	}
	return nil, errf("unsupported expression %T", expr)
}

func (e *elab) rewriteIndex(sc *scope, v *sva.Index) (sva.Expr, error) {
	base, isIdent := v.X.(*sva.Ident)
	if isIdent {
		if _, isGen := sc.genvars[base.Name]; !isGen {
			if _, isParam := sc.params[base.Name]; !isParam {
				name := sc.prefix + base.Name
				di, ok := e.decls[name]
				if !ok {
					return nil, errf("undeclared identifier %q", base.Name)
				}
				// unpacked array indexing
				if di.elems > 0 {
					if idx, _, err := e.constEval(sc, v.Idx); err == nil {
						en, ok := di.element(name, idx)
						if !ok {
							return nil, errf("array index %d out of range for %s", idx, base.Name)
						}
						return &sva.Ident{Name: en}, nil
					}
					// dynamic read: mux chain
					ridx, err := e.rewrite(sc, v.Idx)
					if err != nil {
						return nil, err
					}
					var out sva.Expr = &sva.Ident{Name: name + "$0"}
					for i := 1; i < di.elems; i++ {
						out = &sva.Cond{
							C: &sva.Binary{Op: "==", X: ridx, Y: numLit(di.base+uint64(i), 32)},
							T: &sva.Ident{Name: fmt.Sprintf("%s$%d", name, i)},
							E: out,
						}
					}
					return out, nil
				}
				// 2-D packed chunk select
				if di.chunk > 0 {
					if idx, _, err := e.constEval(sc, v.Idx); err == nil {
						lo := int(idx) * di.chunk
						return &sva.Select{X: &sva.Ident{Name: name},
							Hi: numLit(uint64(lo+di.chunk-1), 32), Lo: numLit(uint64(lo), 32)}, nil
					}
					ridx, err := e.rewrite(sc, v.Idx)
					if err != nil {
						return nil, err
					}
					n := di.width / di.chunk
					var out sva.Expr = &sva.Select{X: &sva.Ident{Name: name},
						Hi: numLit(uint64(di.chunk-1), 32), Lo: numLit(0, 32)}
					for i := 1; i < n; i++ {
						lo := i * di.chunk
						out = &sva.Cond{
							C: &sva.Binary{Op: "==", X: ridx, Y: numLit(uint64(i), 32)},
							T: &sva.Select{X: &sva.Ident{Name: name},
								Hi: numLit(uint64(lo+di.chunk-1), 32), Lo: numLit(uint64(lo), 32)},
							E: out,
						}
					}
					return out, nil
				}
			}
		}
	}
	x, err := e.rewrite(sc, v.X)
	if err != nil {
		return nil, err
	}
	if idx, _, cerr := e.constEval(sc, v.Idx); cerr == nil {
		return &sva.Index{X: x, Idx: numLit(idx, 32)}, nil
	}
	ridx, err := e.rewrite(sc, v.Idx)
	if err != nil {
		return nil, err
	}
	return &sva.Index{X: x, Idx: ridx}, nil
}

func numLit(v uint64, w int) *sva.Num {
	return &sva.Num{Text: fmt.Sprintf("%d'd%d", w, v), Value: v, Width: w}
}

// constEval evaluates a compile-time constant in the current scope.
func (e *elab) constEval(sc *scope, expr sva.Expr) (uint64, int, error) {
	switch v := expr.(type) {
	case *sva.Num:
		if v.Fill {
			return v.Value, 0, nil
		}
		w := v.Width
		if w == 0 {
			w = 32
		}
		return v.Value, w, nil
	case *sva.Ident:
		if gv, ok := sc.genvars[v.Name]; ok {
			return gv, 32, nil
		}
		if c, ok := sc.params[v.Name]; ok {
			return c.Value, c.Width, nil
		}
		return 0, 0, fmt.Errorf("%q is not a constant", v.Name)
	case *sva.Unary:
		x, w, err := e.constEval(sc, v.X)
		if err != nil {
			return 0, 0, err
		}
		switch v.Op {
		case "-":
			return -x & maskOf(w), w, nil
		case "+":
			return x, w, nil
		case "~":
			return ^x & maskOf(w), w, nil
		case "!":
			return boolTo(x == 0), 1, nil
		}
		return 0, 0, fmt.Errorf("constant unary %q unsupported", v.Op)
	case *sva.Binary:
		x, wx, err := e.constEval(sc, v.X)
		if err != nil {
			return 0, 0, err
		}
		y, wy, err := e.constEval(sc, v.Y)
		if err != nil {
			return 0, 0, err
		}
		w := wx
		if wy > w {
			w = wy
		}
		if w == 0 {
			w = 32
		}
		m := maskOf(w)
		switch v.Op {
		case "+":
			return (x + y) & m, w, nil
		case "-":
			return (x - y) & m, w, nil
		case "*":
			return (x * y) & m, w, nil
		case "/":
			if y == 0 {
				return 0, 0, fmt.Errorf("constant division by zero")
			}
			return x / y, w, nil
		case "%":
			if y == 0 {
				return 0, 0, fmt.Errorf("constant modulo by zero")
			}
			return x % y, w, nil
		case "<<":
			return (x << (y & 63)) & m, w, nil
		case ">>":
			return x >> (y & 63), w, nil
		case "==":
			return boolTo(x == y), 1, nil
		case "!=":
			return boolTo(x != y), 1, nil
		case "<":
			return boolTo(x < y), 1, nil
		case "<=":
			return boolTo(x <= y), 1, nil
		case ">":
			return boolTo(x > y), 1, nil
		case ">=":
			return boolTo(x >= y), 1, nil
		case "&&":
			return boolTo(x != 0 && y != 0), 1, nil
		case "||":
			return boolTo(x != 0 || y != 0), 1, nil
		}
		return 0, 0, fmt.Errorf("constant binary %q unsupported", v.Op)
	case *sva.Call:
		if v.Name == "$clog2" && len(v.Args) == 1 {
			x, _, err := e.constEval(sc, v.Args[0])
			if err != nil {
				return 0, 0, err
			}
			return uint64(ltl.Clog2(x)), 32, nil
		}
		return 0, 0, fmt.Errorf("call %s is not constant", v.Name)
	}
	return 0, 0, fmt.Errorf("expression is not constant")
}

func maskOf(w int) uint64 {
	if w <= 0 || w >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(w)) - 1
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (e *elab) genFor(sc *scope, g *GenFor, overrides map[string]uint64) error {
	init, _, err := e.constEval(sc, g.Init)
	if err != nil {
		return errf("generate-for init: %v", err)
	}
	const loopCap = 4096
	sc.genvars[g.Var] = init
	defer delete(sc.genvars, g.Var)
	for iter := 0; ; iter++ {
		if iter > loopCap {
			return errf("generate-for exceeds %d iterations", loopCap)
		}
		cond, _, err := e.constEval(sc, g.Cond)
		if err != nil {
			return errf("generate-for condition: %v", err)
		}
		if cond == 0 {
			return nil
		}
		if err := e.items(sc, g.Body, overrides); err != nil {
			return err
		}
		next, _, err := e.constEval(sc, g.Step)
		if err != nil {
			return errf("generate-for step: %v", err)
		}
		sc.genvars[g.Var] = next
	}
}

func (e *elab) instance(sc *scope, inst *Instance) error {
	child := e.file.Module(inst.ModName)
	if child == nil {
		return errf("instantiated module %q not found", inst.ModName)
	}
	overrides := map[string]uint64{}
	for name, expr := range inst.Params {
		v, _, err := e.constEval(sc, expr)
		if err != nil {
			return errf("instance %s parameter %s: %v", inst.Name, name, err)
		}
		overrides[name] = v
	}
	prefix := sc.prefix + inst.Name + "."
	if err := e.module(child, prefix, overrides, false); err != nil {
		return err
	}
	dirs, err := portDirections(child)
	if err != nil {
		return err
	}
	for port, conn := range inst.Conns {
		dir, ok := dirs[port]
		if !ok {
			return errf("instance %s: module %s has no port %q", inst.Name, inst.ModName, port)
		}
		inner := prefix + port
		di, ok := e.decls[inner]
		if !ok {
			return errf("instance %s: port %q not elaborated", inst.Name, port)
		}
		switch dir {
		case "input":
			// drive the child's input net from the outer expression
			if di.isInput {
				di.isInput = false
				e.removeInput(inner)
			}
			rhs, err := e.rewrite(sc, conn)
			if err != nil {
				return err
			}
			e.addFragment(inner, fragment{hi: di.width - 1, lo: 0, expr: e.coerce(rhs, di.width)})
		case "output":
			// outer target := child signal
			name, hi, lo, err := e.resolveLHS(sc, conn)
			if err != nil {
				return errf("instance %s output %s: %v", inst.Name, port, err)
			}
			e.addFragment(name, fragment{hi: hi, lo: lo,
				expr: e.coerce(&sva.Ident{Name: inner}, hi-lo+1)})
		default:
			return errf("inout ports unsupported")
		}
	}
	return nil
}

func (e *elab) rewriteAssertion(sc *scope, a *sva.Assertion) (*sva.Assertion, error) {
	// Assertions at top level reference flat names already; rewrite
	// parameters to constants is unnecessary because the checking
	// environment carries Consts. Validate signal references resolve.
	return a, nil
}

// ---- always blocks ----------------------------------------------------

type fragKey struct {
	name   string
	hi, lo int
}

func (e *elab) always(sc *scope, a *Always) error {
	seq := a.Kind == "ff" || (a.Kind == "plain" && hasClockEdge(a.Edges))
	asn := map[fragKey]sva.Expr{}
	var order []fragKey
	track := func(k fragKey) {
		for _, o := range order {
			if o == k {
				return
			}
		}
		order = append(order, k)
	}
	if err := e.execStmts(sc, a.Body, asn, track, seq); err != nil {
		return err
	}
	for _, k := range order {
		expr := asn[k]
		w := k.hi - k.lo + 1
		if seq {
			e.regCount++
			regName := k.name
			if !(k.lo == 0 && k.hi == e.decls[k.name].width-1) {
				regName = fmt.Sprintf("%s$%d_%d", k.name, k.hi, k.lo)
			}
			r := Reg{Name: regName, Width: w, Next: e.coerce(expr, w)}
			e.regs = append(e.regs, r)
			e.widths[regName] = w
			e.addFragment(k.name, fragment{hi: k.hi, lo: k.lo, isReg: true,
				expr: &sva.Ident{Name: regName}})
		} else {
			e.addFragment(k.name, fragment{hi: k.hi, lo: k.lo, expr: e.coerce(expr, w)})
		}
	}
	return nil
}

func hasClockEdge(edges []Edge) bool { return len(edges) > 0 }

// execStmts symbolically executes a statement list, accumulating
// assigned expressions per target fragment.
func (e *elab) execStmts(sc *scope, stmts []Stmt, asn map[fragKey]sva.Expr, track func(fragKey), seq bool) error {
	for _, s := range stmts {
		switch v := s.(type) {
		case *ProcAssign:
			name, hi, lo, err := e.resolveLHS(sc, v.LHS)
			if err != nil {
				return err
			}
			rhs, err := e.rewrite(sc, v.RHS)
			if err != nil {
				return err
			}
			k := fragKey{name, hi, lo}
			track(k)
			asn[k] = rhs
		case *If:
			cond, err := e.rewrite(sc, v.Cond)
			if err != nil {
				return err
			}
			thenM := copyAsn(asn)
			if err := e.execStmts(sc, v.Then, thenM, track, seq); err != nil {
				return err
			}
			elseM := copyAsn(asn)
			if err := e.execStmts(sc, v.Else, elseM, track, seq); err != nil {
				return err
			}
			mergeBranches(cond, asn, thenM, elseM, track, e, seq)
		case *Case:
			subj, err := e.rewrite(sc, v.Subject)
			if err != nil {
				return err
			}
			// desugar to nested ifs, last item first
			if err := e.execCase(sc, subj, v.Items, asn, track, seq); err != nil {
				return err
			}
		default:
			return errf("unsupported statement %T", s)
		}
	}
	return nil
}

func (e *elab) execCase(sc *scope, subj sva.Expr, items []CaseItem, asn map[fragKey]sva.Expr, track func(fragKey), seq bool) error {
	if len(items) == 0 {
		return nil
	}
	it := items[0]
	if it.Labels == nil { // default arm
		return e.execStmts(sc, it.Body, asn, track, seq)
	}
	var cond sva.Expr
	for _, lbl := range it.Labels {
		rl, err := e.rewrite(sc, lbl)
		if err != nil {
			return err
		}
		eq := sva.Expr(&sva.Binary{Op: "==", X: subj, Y: rl})
		if cond == nil {
			cond = eq
		} else {
			cond = &sva.Binary{Op: "||", X: cond, Y: eq}
		}
	}
	thenM := copyAsn(asn)
	if err := e.execStmts(sc, it.Body, thenM, track, seq); err != nil {
		return err
	}
	elseM := copyAsn(asn)
	if err := e.execCase(sc, subj, items[1:], elseM, track, seq); err != nil {
		return err
	}
	mergeBranches(cond, asn, thenM, elseM, track, e, seq)
	return nil
}

func copyAsn(m map[fragKey]sva.Expr) map[fragKey]sva.Expr {
	out := make(map[fragKey]sva.Expr, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeBranches folds then/else assignment maps back into asn under
// the branch condition. Fragments assigned on only one path take the
// hold value on the other: for sequential logic the register itself;
// for combinational logic a latch register is synthesized by holdExpr.
func mergeBranches(cond sva.Expr, asn, thenM, elseM map[fragKey]sva.Expr, track func(fragKey), e *elab, seq bool) {
	keys := map[fragKey]bool{}
	for k := range thenM {
		keys[k] = true
	}
	for k := range elseM {
		keys[k] = true
	}
	for k := range keys {
		tv, tok := thenM[k]
		ev, eok := elseM[k]
		base, bok := asn[k]
		if !tok {
			if bok {
				tv = base
			} else {
				tv = e.holdExpr(k, seq)
			}
		}
		if !eok {
			if bok {
				ev = base
			} else {
				ev = e.holdExpr(k, seq)
			}
		}
		if tok || eok {
			track(k)
			if exprEqual(tv, ev) {
				asn[k] = tv
			} else {
				asn[k] = &sva.Cond{C: cond, T: tv, E: ev}
			}
		}
	}
}

func exprEqual(a, b sva.Expr) bool {
	return a == b || a.String() == b.String()
}

// holdExpr yields the "keep previous value" expression for a fragment.
func (e *elab) holdExpr(k fragKey, seq bool) sva.Expr {
	w := k.hi - k.lo + 1
	if seq {
		// the register's own current value
		if k.lo == 0 && e.decls[k.name] != nil && k.hi == e.decls[k.name].width-1 {
			return &sva.Ident{Name: k.name}
		}
		return &sva.Select{X: &sva.Ident{Name: k.name},
			Hi: numLit(uint64(k.hi), 32), Lo: numLit(uint64(k.lo), 32)}
	}
	// combinational incomplete assignment: synthesize a latch register
	// holding last cycle's resolved value.
	latch := fmt.Sprintf("%s$latch$%d_%d", k.name, k.hi, k.lo)
	if _, ok := e.widths[latch]; !ok {
		e.widths[latch] = w
		// Next expression is the resolved net fragment itself — filled
		// in during finish() once the net exists.
		e.regs = append(e.regs, Reg{Name: latch, Width: w,
			Next: &sva.Select{X: &sva.Ident{Name: k.name},
				Hi: numLit(uint64(k.hi), 32), Lo: numLit(uint64(k.lo), 32)}})
	}
	return &sva.Ident{Name: latch}
}

// finish assembles fragments into net definitions and builds the
// System. It also returns the signal values of each reset cycle
// (computeInits).
func (e *elab) finish(top string) (*System, []map[string]uint64, error) {
	sys := &System{
		Top:    top,
		Inputs: e.inputs,
		Widths: e.widths,
		Consts: e.consts,
	}
	// registers collected during elaboration
	sys.Regs = e.regs

	e.fragRanges = map[string][]fragRef{}
	if err := e.buildNets(sys, e.fragRanges); err != nil {
		return nil, nil, err
	}
	// Rewrite in-fragment selects in every net and register expression.
	if len(e.fragRanges) > 0 {
		for i := range sys.Nets {
			sys.Nets[i].Expr = rewriteFragReads(sys.Nets[i].Expr, e.fragRanges)
		}
		for i := range sys.Regs {
			sys.Regs[i].Next = rewriteFragReads(sys.Regs[i].Next, e.fragRanges)
		}
	}
	sys.Asserts = e.asserts
	sys.Assumes = e.assumes
	sys.Covers = e.covers
	sys.index()
	reset, err := computeInits(sys)
	if err != nil {
		return nil, nil, err
	}
	return sys, reset, nil
}

// buildNets appends to sys one net per fragmented signal, in name order,
// plus one per fragment of a multiply fragmented signal, whose ranges
// it records in fragRanges.
func (e *elab) buildNets(sys *System, fragRanges map[string][]fragRef) error {
	names := make([]string, 0, len(e.frags))
	for n := range e.frags {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		frags := e.frags[name]
		di := e.decls[name]
		if di == nil {
			return errf("internal: fragment for undeclared %q", name)
		}
		// single full-width register fragment: the register IS the
		// signal; no net needed.
		if len(frags) == 1 && frags[0].isReg && frags[0].lo == 0 && frags[0].hi == di.width-1 {
			if id, ok := frags[0].expr.(*sva.Ident); ok && id.Name == name {
				continue
			}
		}
		// sort by lo, check overlap, fill holes with zeros
		sort.Slice(frags, func(i, j int) bool { return frags[i].lo < frags[j].lo })
		multi := len(frags) > 1
		var parts []sva.Expr // low to high
		cursor := 0
		for _, f := range frags {
			if f.lo < cursor {
				return errf("signal %s: bits [%d:%d] multiply driven", name, f.hi, f.lo)
			}
			if f.lo > cursor {
				parts = append(parts, numLit(0, f.lo-cursor))
			}
			part := f.expr
			if multi {
				fragName := fmt.Sprintf("%s$f%d_%d", name, f.lo, f.hi)
				fw := f.hi - f.lo + 1
				sys.Nets = append(sys.Nets, Net{Name: fragName, Width: fw, Expr: f.expr})
				sys.Widths[fragName] = fw
				fragRanges[name] = append(fragRanges[name], fragRef{hi: f.hi, lo: f.lo, net: fragName})
				part = &sva.Ident{Name: fragName}
			}
			parts = append(parts, part)
			cursor = f.hi + 1
		}
		if cursor < di.width {
			parts = append(parts, numLit(0, di.width-cursor))
		}
		var expr sva.Expr
		if len(parts) == 1 {
			expr = parts[0]
		} else {
			// Concat is MSB-first
			cat := &sva.Concat{}
			for i := len(parts) - 1; i >= 0; i-- {
				cat.Parts = append(cat.Parts, parts[i])
			}
			expr = cat
		}
		sys.Nets = append(sys.Nets, Net{Name: name, Width: di.width, Expr: expr})
	}
	return nil
}

type fragRef struct {
	hi, lo int
	net    string
}

// rewriteFragReads redirects Select/Index reads that land entirely
// inside one fragment of a multiply-fragmented net to that fragment's
// dedicated net, cutting false whole-word dependency cycles.
func rewriteFragReads(e sva.Expr, frs map[string][]fragRef) sva.Expr {
	switch v := e.(type) {
	case *sva.Select:
		if id, ok := v.X.(*sva.Ident); ok {
			if hi, ok1 := numVal(v.Hi); ok1 {
				if lo, ok2 := numVal(v.Lo); ok2 {
					for _, fr := range frs[id.Name] {
						if lo >= fr.lo && hi <= fr.hi {
							if lo == fr.lo && hi == fr.hi {
								return &sva.Ident{Name: fr.net}
							}
							return &sva.Select{X: &sva.Ident{Name: fr.net},
								Hi: numLit(uint64(hi-fr.lo), 32), Lo: numLit(uint64(lo-fr.lo), 32)}
						}
					}
				}
			}
		}
		return &sva.Select{X: rewriteFragReads(v.X, frs), Hi: v.Hi, Lo: v.Lo}
	case *sva.Index:
		if id, ok := v.X.(*sva.Ident); ok {
			if bit, ok1 := numVal(v.Idx); ok1 {
				for _, fr := range frs[id.Name] {
					if bit >= fr.lo && bit <= fr.hi {
						return &sva.Index{X: &sva.Ident{Name: fr.net},
							Idx: numLit(uint64(bit-fr.lo), 32)}
					}
				}
			}
		}
		return &sva.Index{X: rewriteFragReads(v.X, frs), Idx: rewriteFragReads(v.Idx, frs)}
	case *sva.Unary:
		return &sva.Unary{Op: v.Op, X: rewriteFragReads(v.X, frs)}
	case *sva.Binary:
		return &sva.Binary{Op: v.Op, X: rewriteFragReads(v.X, frs), Y: rewriteFragReads(v.Y, frs)}
	case *sva.Cond:
		return &sva.Cond{C: rewriteFragReads(v.C, frs), T: rewriteFragReads(v.T, frs), E: rewriteFragReads(v.E, frs)}
	case *sva.Call:
		c := &sva.Call{Name: v.Name}
		for _, a := range v.Args {
			c.Args = append(c.Args, rewriteFragReads(a, frs))
		}
		return c
	case *sva.Concat:
		c := &sva.Concat{}
		for _, p := range v.Parts {
			c.Parts = append(c.Parts, rewriteFragReads(p, frs))
		}
		return c
	case *sva.Repl:
		return &sva.Repl{Count: v.Count, Value: rewriteFragReads(v.Value, frs)}
	case *sva.WidthCast:
		return &sva.WidthCast{X: rewriteFragReads(v.X, frs), W: v.W}
	}
	return e
}

func numVal(e sva.Expr) (int, bool) {
	if n, ok := e.(*sva.Num); ok && !n.Fill {
		return int(n.Value), true
	}
	return 0, false
}
