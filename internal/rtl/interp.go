package rtl

import (
	"fmt"
	"math/bits"

	"fveval/internal/ltl"
	"fveval/internal/sva"
)

// cval is a concrete SystemVerilog value: data plus width.
type cval struct {
	v uint64
	w int
}

func (c cval) mask() cval {
	c.v &= maskOf(c.w)
	return c
}

// Interp is a concrete two-state simulator over an elaborated System.
// It computes the reset state and serves as the oracle for
// symbolic-vs-concrete cross checks in tests.
type Interp struct {
	Sys  *System
	Regs map[string]uint64
}

// NewInterp returns a simulator with registers at their reset values.
func NewInterp(sys *System) *Interp {
	in := &Interp{Sys: sys, Regs: map[string]uint64{}}
	for _, r := range sys.Regs {
		in.Regs[r.Name] = r.Init
	}
	return in
}

// Step evaluates one clock cycle with the given input values (missing
// inputs default to 0), commits the next register state, and returns
// the observed value of every signal during the cycle.
func (in *Interp) Step(inputs map[string]uint64) (map[string]uint64, error) {
	vals, err := in.evalCycle(inputs)
	if err != nil {
		return nil, err
	}
	next := map[string]uint64{}
	for _, r := range in.Sys.Regs {
		nv, err := in.eval(r.Next, vals, map[string]bool{})
		if err != nil {
			return nil, fmt.Errorf("register %s: %v", r.Name, err)
		}
		next[r.Name] = nv.mask().v & maskOf(r.Width)
	}
	in.Regs = next
	return vals, nil
}

// Peek evaluates the current cycle without committing state.
func (in *Interp) Peek(inputs map[string]uint64) (map[string]uint64, error) {
	return in.evalCycle(inputs)
}

func (in *Interp) evalCycle(inputs map[string]uint64) (map[string]uint64, error) {
	vals := map[string]uint64{}
	for _, s := range in.Sys.Inputs {
		vals[s.Name] = inputs[s.Name] & maskOf(s.Width)
	}
	for _, r := range in.Sys.Regs {
		vals[r.Name] = in.Regs[r.Name] & maskOf(r.Width)
	}
	for i := range in.Sys.Nets {
		if _, err := in.netValue(in.Sys.Nets[i].Name, vals, map[string]bool{}); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

func (in *Interp) netValue(name string, vals map[string]uint64, busy map[string]bool) (cval, error) {
	if v, ok := vals[name]; ok {
		return cval{v, in.widthOf(name)}, nil
	}
	net, ok := in.Sys.NetByName(name)
	if !ok {
		return cval{}, fmt.Errorf("undeclared signal %q", name)
	}
	if busy[name] {
		return cval{}, fmt.Errorf("combinational loop through %q", name)
	}
	busy[name] = true
	v, err := in.eval(net.Expr, vals, busy)
	if err != nil {
		return cval{}, err
	}
	delete(busy, name)
	out := cval{v.v & maskOf(net.Width), net.Width}
	vals[name] = out.v
	return out, nil
}

func (in *Interp) widthOf(name string) int {
	if w, ok := in.Sys.Widths[name]; ok {
		return w
	}
	return 64
}

// eval evaluates an elaborated expression concretely. The expression
// language here is the post-elaboration subset (no $past family, no
// free parameters).
func (in *Interp) eval(e sva.Expr, vals map[string]uint64, busy map[string]bool) (cval, error) {
	switch v := e.(type) {
	case *sva.Ident:
		if val, ok := vals[v.Name]; ok {
			return cval{val, in.widthOf(v.Name)}, nil
		}
		return in.netValue(v.Name, vals, busy)
	case *sva.Num:
		if v.Fill {
			return cval{v.Value, 0}, nil // elastic; callers resolve width
		}
		w := v.Width
		if w == 0 {
			w = 32
		}
		return cval{v.Value & maskOf(w), w}, nil
	case *sva.WidthCast:
		x, err := in.eval(v.X, vals, busy)
		if err != nil {
			return cval{}, err
		}
		return cval{x.v & maskOf(v.W), v.W}, nil
	case *sva.Unary:
		x, err := in.eval(v.X, vals, busy)
		if err != nil {
			return cval{}, err
		}
		x = x.mask()
		switch v.Op {
		case "!":
			return cval{boolTo(x.v == 0), 1}, nil
		case "~":
			return cval{^x.v & maskOf(x.w), x.w}, nil
		case "-":
			return cval{-x.v & maskOf(x.w), x.w}, nil
		case "+":
			return x, nil
		case "&":
			return cval{boolTo(x.v == maskOf(x.w) && x.w > 0), 1}, nil
		case "|":
			return cval{boolTo(x.v != 0), 1}, nil
		case "^":
			return cval{uint64(bits.OnesCount64(x.v) % 2), 1}, nil
		case "~&":
			return cval{boolTo(!(x.v == maskOf(x.w) && x.w > 0)), 1}, nil
		case "~|":
			return cval{boolTo(x.v == 0), 1}, nil
		case "~^", "^~":
			return cval{uint64(1 - bits.OnesCount64(x.v)%2), 1}, nil
		}
		return cval{}, fmt.Errorf("unary %q unsupported", v.Op)
	case *sva.Binary:
		return in.evalBinary(v, vals, busy)
	case *sva.Cond:
		c, err := in.eval(v.C, vals, busy)
		if err != nil {
			return cval{}, err
		}
		if c.mask().v != 0 {
			return in.eval(v.T, vals, busy)
		}
		return in.eval(v.E, vals, busy)
	case *sva.Concat:
		var out uint64
		total := 0
		for _, p := range v.Parts {
			pv, err := in.eval(p, vals, busy)
			if err != nil {
				return cval{}, err
			}
			pv = pv.mask()
			if pv.w == 0 {
				return cval{}, fmt.Errorf("fill literal in concatenation")
			}
			if pv.w > ltl.MaxWidth-total {
				return cval{}, errf("concatenation wider than %d bits", ltl.MaxWidth)
			}
			out = (out << uint(pv.w)) | pv.v
			total += pv.w
		}
		return cval{out, total}, nil
	case *sva.Repl:
		nv, err := in.eval(v.Count, vals, busy)
		if err != nil {
			return cval{}, err
		}
		x, err := in.eval(v.Value, vals, busy)
		if err != nil {
			return cval{}, err
		}
		x = x.mask()
		// Copies shifted 64 or more bits up leave no trace in a uint64,
		// so at most ceil(64/w) of them are materialised (one of a
		// zero-width fill).
		copies := uint64(1)
		if x.w > 0 {
			if nv.v > uint64(ltl.MaxWidth/x.w) {
				return cval{}, errf("replication wider than %d bits", ltl.MaxWidth)
			}
			copies = uint64((63 + x.w) / x.w)
		}
		var out uint64
		for i := uint64(0); i < min(nv.v, copies); i++ {
			out = (out << uint(x.w)) | x.v
		}
		return cval{out, int(nv.v) * x.w}, nil
	case *sva.Index:
		x, err := in.eval(v.X, vals, busy)
		if err != nil {
			return cval{}, err
		}
		idx, err := in.eval(v.Idx, vals, busy)
		if err != nil {
			return cval{}, err
		}
		if idx.mask().v >= 64 {
			return cval{0, 1}, nil
		}
		return cval{(x.v >> idx.v) & 1, 1}, nil
	case *sva.Select:
		x, err := in.eval(v.X, vals, busy)
		if err != nil {
			return cval{}, err
		}
		hi, err := in.eval(v.Hi, vals, busy)
		if err != nil {
			return cval{}, err
		}
		lo, err := in.eval(v.Lo, vals, busy)
		if err != nil {
			return cval{}, err
		}
		if hi.v < lo.v || lo.v >= 64 {
			return cval{0, 1}, nil
		}
		w := int(hi.v-lo.v) + 1
		return cval{(x.v >> lo.v) & maskOf(w), w}, nil
	case *sva.Call:
		switch v.Name {
		case "$countones":
			x, err := in.eval(v.Args[0], vals, busy)
			if err != nil {
				return cval{}, err
			}
			return cval{uint64(bits.OnesCount64(x.mask().v)), 32}, nil
		case "$onehot":
			x, err := in.eval(v.Args[0], vals, busy)
			if err != nil {
				return cval{}, err
			}
			return cval{boolTo(bits.OnesCount64(x.mask().v) == 1), 1}, nil
		case "$onehot0":
			x, err := in.eval(v.Args[0], vals, busy)
			if err != nil {
				return cval{}, err
			}
			return cval{boolTo(bits.OnesCount64(x.mask().v) <= 1), 1}, nil
		case "$clog2":
			x, err := in.eval(v.Args[0], vals, busy)
			if err != nil {
				return cval{}, err
			}
			return cval{uint64(ltl.Clog2(x.v)), 32}, nil
		}
		return cval{}, fmt.Errorf("system function %s not usable in RTL nets", v.Name)
	}
	return cval{}, fmt.Errorf("unsupported expression %T", e)
}

func (in *Interp) evalBinary(v *sva.Binary, vals map[string]uint64, busy map[string]bool) (cval, error) {
	x, err := in.eval(v.X, vals, busy)
	if err != nil {
		return cval{}, err
	}
	y, err := in.eval(v.Y, vals, busy)
	if err != nil {
		return cval{}, err
	}
	// resolve elastic fills against the sibling
	if x.w == 0 && y.w == 0 {
		x.w, y.w = 1, 1
	} else if x.w == 0 {
		x.w = y.w
	} else if y.w == 0 {
		y.w = x.w
	}
	w := x.w
	if y.w > w {
		w = y.w
	}
	xv := x.v & maskOf(x.w)
	yv := y.v & maskOf(y.w)
	m := maskOf(w)
	switch v.Op {
	case "&&":
		return cval{boolTo(xv != 0 && yv != 0), 1}, nil
	case "||":
		return cval{boolTo(xv != 0 || yv != 0), 1}, nil
	case "==", "===":
		return cval{boolTo(xv == yv), 1}, nil
	case "!=", "!==":
		return cval{boolTo(xv != yv), 1}, nil
	case "<":
		return cval{boolTo(xv < yv), 1}, nil
	case "<=":
		return cval{boolTo(xv <= yv), 1}, nil
	case ">":
		return cval{boolTo(xv > yv), 1}, nil
	case ">=":
		return cval{boolTo(xv >= yv), 1}, nil
	case "+":
		return cval{(xv + yv) & m, w}, nil
	case "-":
		return cval{(xv - yv) & m, w}, nil
	case "*":
		return cval{(xv * yv) & m, w}, nil
	case "&":
		return cval{xv & yv, w}, nil
	case "|":
		return cval{xv | yv, w}, nil
	case "^":
		return cval{xv ^ yv, w}, nil
	case "~^", "^~":
		return cval{(^(xv ^ yv)) & m, w}, nil
	case "<<", "<<<":
		if yv >= 64 {
			return cval{0, x.w}, nil
		}
		return cval{(xv << yv) & maskOf(x.w), x.w}, nil
	case ">>":
		if yv >= 64 {
			return cval{0, x.w}, nil
		}
		return cval{xv >> yv, x.w}, nil
	case ">>>":
		// arithmetic on the declared width
		if x.w == 0 {
			return cval{0, 1}, nil
		}
		sign := (xv >> uint(x.w-1)) & 1
		sh := yv
		if sh > uint64(x.w) {
			sh = uint64(x.w)
		}
		out := xv >> sh
		if sign == 1 {
			// fill with ones
			fill := maskOf(x.w) &^ maskOf(x.w-int(sh))
			out |= fill
		}
		return cval{out & maskOf(x.w), x.w}, nil
	case "%":
		if yv == 0 {
			return cval{}, fmt.Errorf("modulo by zero")
		}
		return cval{xv % yv, w}, nil
	case "/":
		if yv == 0 {
			return cval{}, fmt.Errorf("division by zero")
		}
		return cval{xv / yv, w}, nil
	}
	return cval{}, fmt.Errorf("binary %q unsupported", v.Op)
}

// computeInits determines register reset values by simulating reset:
// all registers start at zero, reset-style inputs are driven active
// (reset_ low per the benchmark convention, every other input zero),
// and the design steps twice so latches settle. It returns each
// cycle's signal values; evaluating every net there is also where
// combinational loops and reads of undriven names surface.
func computeInits(sys *System) ([]map[string]uint64, error) {
	in := &Interp{Sys: sys, Regs: map[string]uint64{}}
	for _, r := range sys.Regs {
		in.Regs[r.Name] = 0
	}
	resetInputs := map[string]uint64{}
	for _, s := range sys.Inputs {
		resetInputs[s.Name] = 0 // reset_ low = active
	}
	cycles := make([]map[string]uint64, 2)
	for i := range cycles {
		vals, err := in.Step(resetInputs)
		if err != nil {
			return nil, err
		}
		cycles[i] = vals
	}
	for i := range sys.Regs {
		sys.Regs[i].Init = in.Regs[sys.Regs[i].Name]
	}
	return cycles, nil
}
