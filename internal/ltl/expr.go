package ltl

import (
	"fmt"
	"math/bits"

	"fveval/internal/bitvec"
	"fveval/internal/logic"
	"fveval/internal/sva"
)

// Env resolves names during bit-blasting.
type Env interface {
	// Signal returns the symbolic value of a signal at a trace
	// position. Positions are non-negative; the evaluator handles
	// pre-trace references itself.
	Signal(name string, pos int) (bitvec.BV, error)
	// SignalWidth returns the declared width of a signal.
	SignalWidth(name string) (int, bool)
	// Constant resolves a named parameter/constant.
	Constant(name string) (val uint64, width int, ok bool)
}

// ElabError reports a name-resolution or typing failure — the
// equivalent of a tool elaboration error (counted against the Syntax
// metric in the paper's flow).
type ElabError struct{ Reason string }

func (e *ElabError) Error() string { return "ltl: elaboration: " + e.Reason }

// MaxWidth bounds, in bits, every vector a sized literal, part-select,
// replication or concatenation builds, and every declared signal; a
// wider one is an elaboration error. It sits far above the widest
// vector any in-repo design, testbench, reference or proxy response
// builds (288 bits, a Design2SVA testbench), and keeps one model
// response from materialising millions of nodes.
const MaxWidth = 1 << 16

// tooWide is the elaboration error for a vector wider than MaxWidth.
func tooWide(what string) error {
	return &ElabError{fmt.Sprintf("%s wider than %d bits", what, MaxWidth)}
}

// replWidth returns the width of count copies of a w-bit value; the
// bound is checked before the multiplication can overflow.
func replWidth(count uint64, w int) (int, error) {
	if w == 0 {
		return 0, nil
	}
	if count > uint64(MaxWidth/w) {
		return 0, tooWide("replication")
	}
	return int(count) * w, nil
}

// concatWidth adds a w-bit part to a concatenation of width total.
func concatWidth(total, w int) (int, error) {
	if w > MaxWidth-total {
		return 0, tooWide("concatenation")
	}
	return total + w, nil
}

// ExprEval bit-blasts boolean-layer SVA expressions. Results are
// memoized per (expression, position): the boolean layer is
// loop-structure-independent, so one evaluator shared by a family of
// lasso evaluators (or a deepening frame unroll) elaborates each atom
// instance once instead of once per loop shape or depth.
type ExprEval struct {
	Ops bitvec.Ops
	Env Env

	// Memos are keyed by expression, then indexed by position: one
	// interface-hash per call instead of hashing an (expr, pos) pair,
	// and far fewer map entries. noNode marks empty bool slots; a nil
	// Bits slice marks empty vector slots (a miss there merely
	// recomputes).
	boolMemo map[sva.Expr][]logic.Node
	evalMemo map[sva.Expr][]bitvec.BV
}

// noNode is the empty-slot sentinel of the position-indexed memos
// (never a valid node reference).
const noNode = logic.Node(-1)

// growNodes returns s extended to hold index pos, filling with noNode.
func growNodes(s []logic.Node, pos int) []logic.Node {
	for len(s) <= pos {
		s = append(s, noNode)
	}
	return s
}

// Bool evaluates an expression at a position and reduces it to its
// truth value.
func (ev *ExprEval) Bool(e sva.Expr, pos int) (logic.Node, error) {
	m := ev.boolMemo[e]
	if pos < len(m) && m[pos] != noNode {
		return m[pos], nil
	}
	v, err := ev.eval(e, pos, 0)
	if err != nil {
		return logic.False, err
	}
	n := ev.Ops.Bool(v)
	if ev.boolMemo == nil {
		ev.boolMemo = map[sva.Expr][]logic.Node{}
	}
	m = growNodes(m, pos)
	m[pos] = n
	ev.boolMemo[e] = m
	return n, nil
}

// Eval evaluates an expression at a position to a bit-vector.
func (ev *ExprEval) Eval(e sva.Expr, pos int) (bitvec.BV, error) {
	m := ev.evalMemo[e]
	if pos < len(m) && m[pos].Bits != nil {
		return m[pos], nil
	}
	v, err := ev.eval(e, pos, 0)
	if err != nil {
		return bitvec.BV{}, err
	}
	if ev.evalMemo == nil {
		ev.evalMemo = map[sva.Expr][]bitvec.BV{}
	}
	for len(m) <= pos {
		m = append(m, bitvec.BV{})
	}
	m[pos] = v
	ev.evalMemo[e] = m
	return v, nil
}

// Width computes the self-determined width of an expression; elastic
// fill literals report 0.
func (ev *ExprEval) Width(e sva.Expr) (int, error) {
	switch v := e.(type) {
	case *sva.Ident:
		if w, ok := ev.Env.SignalWidth(v.Name); ok {
			return w, nil
		}
		if _, w, ok := ev.Env.Constant(v.Name); ok {
			if w == 0 {
				return 32, nil
			}
			return w, nil
		}
		return 0, &ElabError{fmt.Sprintf("undeclared identifier %q", v.Name)}
	case *sva.Num:
		if v.Fill {
			return 0, nil
		}
		if v.Width > MaxWidth {
			return 0, tooWide("literal")
		}
		if v.Width > 0 {
			return v.Width, nil
		}
		return 32, nil
	case *sva.Unary:
		switch v.Op {
		case "!", "&", "|", "^", "~&", "~|", "~^", "^~":
			return 1, nil
		}
		return ev.Width(v.X)
	case *sva.Binary:
		switch v.Op {
		case "&&", "||", "==", "!=", "===", "!==", "<", "<=", ">", ">=":
			return 1, nil
		case "<<", ">>", "<<<", ">>>":
			return ev.Width(v.X)
		}
		wx, err := ev.Width(v.X)
		if err != nil {
			return 0, err
		}
		wy, err := ev.Width(v.Y)
		if err != nil {
			return 0, err
		}
		return maxInt(wx, wy), nil
	case *sva.Cond:
		wt, err := ev.Width(v.T)
		if err != nil {
			return 0, err
		}
		we, err := ev.Width(v.E)
		if err != nil {
			return 0, err
		}
		return maxInt(wt, we), nil
	case *sva.Concat:
		total := 0
		for _, p := range v.Parts {
			w, err := ev.Width(p)
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, &ElabError{"fill literal not allowed in concatenation"}
			}
			if total, err = concatWidth(total, w); err != nil {
				return 0, err
			}
		}
		return total, nil
	case *sva.Repl:
		n, ok := ev.constVal(v.Count)
		if !ok {
			return 0, &ElabError{"replication count must be constant"}
		}
		w, err := ev.Width(v.Value)
		if err != nil {
			return 0, err
		}
		return replWidth(n, w)
	case *sva.Index:
		return 1, nil
	case *sva.Select:
		hi, ok1 := ev.constVal(v.Hi)
		lo, ok2 := ev.constVal(v.Lo)
		if !ok1 || !ok2 {
			return 0, &ElabError{"part-select bounds must be constant"}
		}
		if hi < lo {
			return 0, &ElabError{"part-select bounds reversed"}
		}
		if hi-lo >= MaxWidth {
			return 0, tooWide("part-select")
		}
		return int(hi-lo) + 1, nil
	case *sva.WidthCast:
		return v.W, nil
	case *sva.Call:
		switch v.Name {
		case "$onehot", "$onehot0", "$rose", "$fell", "$stable", "$changed", "$isunknown":
			return 1, nil
		case "$bits", "$clog2":
			return 32, nil
		case "$countones":
			w, err := ev.Width(v.Args[0])
			if err != nil {
				return 0, err
			}
			c := 1
			for (1 << uint(c)) <= w {
				c++
			}
			return c, nil
		case "$past":
			return ev.Width(v.Args[0])
		}
		return 0, &ElabError{fmt.Sprintf("unknown system function %q", v.Name)}
	}
	return 0, &ElabError{fmt.Sprintf("unknown expression node %T", e)}
}

// constVal evaluates a compile-time constant expression.
func (ev *ExprEval) constVal(e sva.Expr) (uint64, bool) {
	switch v := e.(type) {
	case *sva.Num:
		if v.Fill {
			return 0, false
		}
		return v.Value, true
	case *sva.Ident:
		if val, _, ok := ev.Env.Constant(v.Name); ok {
			return val, true
		}
		return 0, false
	case *sva.Unary:
		x, ok := ev.constVal(v.X)
		if !ok {
			return 0, false
		}
		switch v.Op {
		case "-":
			return -x, true
		case "+":
			return x, true
		case "~":
			return ^x, true
		case "!":
			if x == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *sva.Binary:
		x, ok1 := ev.constVal(v.X)
		y, ok2 := ev.constVal(v.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch v.Op {
		case "+":
			return x + y, true
		case "-":
			return x - y, true
		case "*":
			return x * y, true
		case "/":
			if y == 0 {
				return 0, false
			}
			return x / y, true
		case "%":
			if y == 0 {
				return 0, false
			}
			return x % y, true
		case "<<":
			return x << (y & 63), true
		case ">>":
			return x >> (y & 63), true
		}
		return 0, false
	case *sva.Call:
		if v.Name == "$clog2" && len(v.Args) == 1 {
			if x, ok := ev.constVal(v.Args[0]); ok {
				return uint64(Clog2(x)), true
			}
		}
		if v.Name == "$bits" && len(v.Args) == 1 {
			if w, err := ev.Width(v.Args[0]); err == nil && w > 0 {
				return uint64(w), true
			}
		}
		return 0, false
	}
	return 0, false
}

// Clog2 is SystemVerilog's $clog2: the ceiling of log2(x), 0 for x
// <= 1 and 64 for x > 2^63.
func Clog2(x uint64) int {
	if x == 0 {
		return 0
	}
	return bits.Len64(x - 1)
}

// eval evaluates at a position; hint is the context width for elastic
// fill literals (0 if none).
func (ev *ExprEval) eval(e sva.Expr, pos int, hint int) (bitvec.BV, error) {
	o := ev.Ops
	switch v := e.(type) {
	case *sva.Ident:
		if _, ok := ev.Env.SignalWidth(v.Name); ok {
			return ev.signalAt(v.Name, pos)
		}
		if val, w, ok := ev.Env.Constant(v.Name); ok {
			if w == 0 {
				w = 32
			}
			return bitvec.Const(val, w), nil
		}
		return bitvec.BV{}, &ElabError{fmt.Sprintf("undeclared identifier %q", v.Name)}
	case *sva.Num:
		if v.Fill {
			w := hint
			if w == 0 {
				w = 1
			}
			return bitvec.Const(v.Value, w), nil
		}
		w := v.Width
		if w > MaxWidth {
			return bitvec.BV{}, tooWide("literal")
		}
		if w == 0 {
			w = 32
			if hint > 32 {
				w = hint
			}
		}
		return bitvec.Const(v.Value, w), nil
	case *sva.Unary:
		switch v.Op {
		case "!":
			x, err := ev.eval(v.X, pos, 0)
			if err != nil {
				return bitvec.BV{}, err
			}
			return bitvec.FromBool(o.Bool(x).Not()), nil
		case "~":
			x, err := ev.eval(v.X, pos, hint)
			if err != nil {
				return bitvec.BV{}, err
			}
			return o.Not(x), nil
		case "-":
			x, err := ev.eval(v.X, pos, hint)
			if err != nil {
				return bitvec.BV{}, err
			}
			return o.Neg(x), nil
		case "+":
			return ev.eval(v.X, pos, hint)
		case "&":
			return ev.reduction(v.X, pos, o.RedAnd)
		case "|":
			return ev.reduction(v.X, pos, o.RedOr)
		case "^":
			return ev.reduction(v.X, pos, o.RedXor)
		case "~&":
			return ev.reductionNot(v.X, pos, o.RedAnd)
		case "~|":
			return ev.reductionNot(v.X, pos, o.RedOr)
		case "~^", "^~":
			return ev.reductionNot(v.X, pos, o.RedXor)
		}
		return bitvec.BV{}, &ElabError{fmt.Sprintf("unknown unary operator %q", v.Op)}
	case *sva.Binary:
		return ev.evalBinary(v, pos, hint)
	case *sva.Cond:
		c, err := ev.Bool(v.C, pos)
		if err != nil {
			return bitvec.BV{}, err
		}
		t, err2 := ev.eval(v.T, pos, hint)
		if err2 != nil {
			return bitvec.BV{}, err2
		}
		f, err3 := ev.eval(v.E, pos, hint)
		if err3 != nil {
			return bitvec.BV{}, err3
		}
		return o.Mux(c, t, f), nil
	case *sva.Concat:
		var parts []bitvec.BV
		total := 0
		for _, p := range v.Parts {
			b, err := ev.eval(p, pos, 0)
			if err != nil {
				return bitvec.BV{}, err
			}
			if total, err = concatWidth(total, b.Width()); err != nil {
				return bitvec.BV{}, err
			}
			parts = append(parts, b)
		}
		return o.Concat(parts...), nil
	case *sva.Repl:
		n, ok := ev.constVal(v.Count)
		if !ok {
			return bitvec.BV{}, &ElabError{"replication count must be constant"}
		}
		b, err := ev.eval(v.Value, pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		w, err := replWidth(n, b.Width())
		if err != nil || w == 0 {
			return bitvec.BV{}, err
		}
		return o.Replicate(b, int(n)), nil
	case *sva.Index:
		x, err := ev.eval(v.X, pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		if idx, ok := ev.constVal(v.Idx); ok {
			if int(idx) >= x.Width() {
				return bitvec.Const(0, 1), nil
			}
			return bitvec.BV{Bits: x.Bits[idx : idx+1]}, nil
		}
		iv, err := ev.eval(v.Idx, pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		return bitvec.FromBool(o.Index(x, iv)), nil
	case *sva.Select:
		x, err := ev.eval(v.X, pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		hi, ok1 := ev.constVal(v.Hi)
		lo, ok2 := ev.constVal(v.Lo)
		if !ok1 || !ok2 {
			return bitvec.BV{}, &ElabError{"part-select bounds must be constant"}
		}
		return o.Extract(x, int(hi), int(lo)), nil
	case *sva.WidthCast:
		x, err := ev.eval(v.X, pos, v.W)
		if err != nil {
			return bitvec.BV{}, err
		}
		return x.Extend(v.W), nil
	case *sva.Call:
		return ev.evalCall(v, pos)
	}
	return bitvec.BV{}, &ElabError{fmt.Sprintf("unknown expression node %T", e)}
}

func (ev *ExprEval) reduction(x sva.Expr, pos int, f func(bitvec.BV) logic.Node) (bitvec.BV, error) {
	b, err := ev.eval(x, pos, 0)
	if err != nil {
		return bitvec.BV{}, err
	}
	return bitvec.FromBool(f(b)), nil
}

func (ev *ExprEval) reductionNot(x sva.Expr, pos int, f func(bitvec.BV) logic.Node) (bitvec.BV, error) {
	b, err := ev.eval(x, pos, 0)
	if err != nil {
		return bitvec.BV{}, err
	}
	return bitvec.FromBool(f(b).Not()), nil
}

func (ev *ExprEval) evalBinary(v *sva.Binary, pos int, hint int) (bitvec.BV, error) {
	o := ev.Ops
	switch v.Op {
	case "&&", "||":
		x, err := ev.Bool(v.X, pos)
		if err != nil {
			return bitvec.BV{}, err
		}
		y, err := ev.Bool(v.Y, pos)
		if err != nil {
			return bitvec.BV{}, err
		}
		if v.Op == "&&" {
			return bitvec.FromBool(o.B.And(x, y)), nil
		}
		return bitvec.FromBool(o.B.Or(x, y)), nil
	case "==", "!=", "===", "!==", "<", "<=", ">", ">=":
		x, y, err := ev.evalPair(v.X, v.Y, pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		var n logic.Node
		switch v.Op {
		case "==", "===":
			n = o.Eq(x, y)
		case "!=", "!==":
			n = o.Ne(x, y)
		case "<":
			n = o.Ult(x, y)
		case "<=":
			n = o.Ule(x, y)
		case ">":
			n = o.Ult(y, x)
		case ">=":
			n = o.Ule(y, x)
		}
		return bitvec.FromBool(n), nil
	case "<<", ">>", "<<<", ">>>":
		x, err := ev.eval(v.X, pos, hint)
		if err != nil {
			return bitvec.BV{}, err
		}
		if amt, ok := ev.constVal(v.Y); ok {
			switch v.Op {
			case "<<", "<<<":
				return o.ShlConst(x, int(amt)), nil
			case ">>":
				return o.ShrConst(x, int(amt)), nil
			default: // >>>
				return o.AshrConst(x, int(amt)), nil
			}
		}
		y, err := ev.eval(v.Y, pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		switch v.Op {
		case "<<", "<<<":
			return o.Shl(x, y), nil
		case ">>":
			return o.Shr(x, y), nil
		default:
			return o.Ashr(x, y), nil
		}
	case "+", "-", "*", "&", "|", "^", "~^", "^~":
		x, y, err := ev.evalPair(v.X, v.Y, pos, hint)
		if err != nil {
			return bitvec.BV{}, err
		}
		switch v.Op {
		case "+":
			return o.Add(x, y), nil
		case "-":
			return o.Sub(x, y), nil
		case "*":
			return o.Mul(x, y), nil
		case "&":
			return o.And(x, y), nil
		case "|":
			return o.Or(x, y), nil
		case "^":
			return o.Xor(x, y), nil
		default: // ~^ ^~
			return o.Xnor(x, y), nil
		}
	case "%", "/":
		// Supported only with constant divisor (the benchmark uses
		// $countones(x) % 2 forms).
		x, err := ev.eval(v.X, pos, hint)
		if err != nil {
			return bitvec.BV{}, err
		}
		d, ok := ev.constVal(v.Y)
		if !ok || d == 0 {
			return bitvec.BV{}, &ElabError{"division/modulo requires nonzero constant divisor"}
		}
		if v.Op == "%" {
			if d&(d-1) == 0 {
				// power of two: mask
				k := Clog2(d)
				return o.And(x, bitvec.Const(d-1, x.Width())).Extend(maxInt(k, 1)), nil
			}
			return ev.modConst(x, d)
		}
		if d&(d-1) == 0 {
			return o.ShrConst(x, Clog2(d)), nil
		}
		return bitvec.BV{}, &ElabError{"division by non-power-of-two constant unsupported"}
	}
	return bitvec.BV{}, &ElabError{fmt.Sprintf("unknown binary operator %q", v.Op)}
}

// modConst computes x % d for small constant d by conditional
// subtraction over the value range.
func (ev *ExprEval) modConst(x bitvec.BV, d uint64) (bitvec.BV, error) {
	if x.Width() > 16 {
		return bitvec.BV{}, &ElabError{"modulo by non-power-of-two on wide operand unsupported"}
	}
	o := ev.Ops
	res := bitvec.Const(0, x.Width())
	for v := uint64(0); v < (uint64(1) << uint(x.Width())); v++ {
		sel := o.Eq(x, bitvec.Const(v, x.Width()))
		res = o.Mux(sel, bitvec.Const(v%d, x.Width()), res)
	}
	return res, nil
}

// evalPair evaluates two operands at a common width, resolving elastic
// fill literals against the sibling operand.
func (ev *ExprEval) evalPair(xe, ye sva.Expr, pos int, hint int) (bitvec.BV, bitvec.BV, error) {
	wx, errX := ev.Width(xe)
	if errX != nil {
		return bitvec.BV{}, bitvec.BV{}, errX
	}
	wy, errY := ev.Width(ye)
	if errY != nil {
		return bitvec.BV{}, bitvec.BV{}, errY
	}
	w := maxInt(maxInt(wx, wy), hint)
	if w == 0 {
		w = 1
	}
	x, err := ev.eval(xe, pos, w)
	if err != nil {
		return bitvec.BV{}, bitvec.BV{}, err
	}
	y, err := ev.eval(ye, pos, w)
	if err != nil {
		return bitvec.BV{}, bitvec.BV{}, err
	}
	return x.Extend(w), y.Extend(w), nil
}

func (ev *ExprEval) evalCall(v *sva.Call, pos int) (bitvec.BV, error) {
	o := ev.Ops
	switch v.Name {
	case "$countones":
		x, err := ev.eval(v.Args[0], pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		return o.CountOnes(x), nil
	case "$onehot":
		x, err := ev.eval(v.Args[0], pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		return bitvec.FromBool(o.OneHot(x)), nil
	case "$onehot0":
		x, err := ev.eval(v.Args[0], pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		return bitvec.FromBool(o.OneHot0(x)), nil
	case "$isunknown":
		// two-state semantics: never unknown
		return bitvec.Const(0, 1), nil
	case "$bits":
		w, err := ev.Width(v.Args[0])
		if err != nil {
			return bitvec.BV{}, err
		}
		return bitvec.Const(uint64(w), 32), nil
	case "$clog2":
		x, ok := ev.constVal(v.Args[0])
		if !ok {
			return bitvec.BV{}, &ElabError{"$clog2 requires a constant argument"}
		}
		return bitvec.Const(uint64(Clog2(x)), 32), nil
	case "$past":
		n := 1
		if len(v.Args) == 2 {
			c, ok := ev.constVal(v.Args[1])
			if !ok {
				return bitvec.BV{}, &ElabError{"$past depth must be constant"}
			}
			n = int(c)
		}
		if pos-n < 0 {
			w, err := ev.Width(v.Args[0])
			if err != nil {
				return bitvec.BV{}, err
			}
			if w == 0 {
				w = 1
			}
			return bitvec.Const(0, w), nil
		}
		return ev.eval(v.Args[0], pos-n, 0)
	case "$rose", "$fell", "$stable", "$changed":
		cur, err := ev.eval(v.Args[0], pos, 0)
		if err != nil {
			return bitvec.BV{}, err
		}
		var prev bitvec.BV
		if pos-1 < 0 {
			prev = bitvec.Const(0, cur.Width())
		} else {
			prev, err = ev.eval(v.Args[0], pos-1, 0)
			if err != nil {
				return bitvec.BV{}, err
			}
		}
		switch v.Name {
		case "$rose":
			// LSB transition 0 -> 1
			return bitvec.FromBool(o.B.And(cur.Bits[0], prev.Bits[0].Not())), nil
		case "$fell":
			return bitvec.FromBool(o.B.And(cur.Bits[0].Not(), prev.Bits[0])), nil
		case "$stable":
			return bitvec.FromBool(o.Eq(cur, prev)), nil
		default: // $changed
			return bitvec.FromBool(o.Ne(cur, prev)), nil
		}
	}
	return bitvec.BV{}, &ElabError{fmt.Sprintf("unknown system function %q", v.Name)}
}

func (ev *ExprEval) signalAt(name string, pos int) (bitvec.BV, error) {
	if pos < 0 {
		w, ok := ev.Env.SignalWidth(name)
		if !ok {
			return bitvec.BV{}, &ElabError{fmt.Sprintf("undeclared identifier %q", name)}
		}
		return bitvec.Const(0, w), nil
	}
	return ev.Env.Signal(name, pos)
}
