package ltl

import (
	"fveval/internal/bitvec"
	"fveval/internal/logic"
)

// LassoEval computes the truth of LTL formulas over a (K, L)-lasso: an
// ultimately periodic trace with positions 0..K-1 where position K-1
// loops back to position L. Every infinite ultimately periodic word
// whose prefix+period fits in K positions is representable; over free
// signals this family is counterexample-complete for the bounded-depth
// properties in the benchmark (see DESIGN.md §4).
type LassoEval struct {
	Ev   *ExprEval
	K, L int

	// memo is keyed by formula, then indexed by position (positions on
	// a (K, L)-lasso are always < K): one interface-hash per Truth call
	// and a dense slice behind it.
	memo map[Formula][]logic.Node
}

// NewLassoEval constructs an evaluator for a (K, L)-lasso.
func NewLassoEval(ev *ExprEval, k, l int) *LassoEval {
	if l < 0 || l >= k {
		panic("ltl: loop position out of range")
	}
	return &LassoEval{Ev: ev, K: k, L: l, memo: map[Formula][]logic.Node{}}
}

func (le *LassoEval) succ(i int) int {
	if i < le.K-1 {
		return i + 1
	}
	return le.L
}

func (le *LassoEval) advance(i, n int) int {
	for ; n > 0; n-- {
		i = le.succ(i)
	}
	return i
}

// Reach lists the positions the lasso reaches from i, in order: i to
// K-1, then the loop's positions below i.
func (le *LassoEval) Reach(i int) []int {
	var out []int
	for j := i; j < le.K; j++ {
		out = append(out, j)
	}
	for j := le.L; j < min(i, le.K); j++ {
		out = append(out, j)
	}
	return out
}

// path returns the walk i, i+1, ..., K-1, L, ..., K-1 (one loop wrap;
// sufficient for until, see the package comment).
func (le *LassoEval) path(i int) []int {
	var out []int
	for j := i; j < le.K; j++ {
		out = append(out, j)
	}
	for j := le.L; j < le.K; j++ {
		out = append(out, j)
	}
	return out
}

// Truth returns the circuit node representing "f holds at position
// pos" on this lasso.
func (le *LassoEval) Truth(f Formula, pos int) (logic.Node, error) {
	m := le.memo[f]
	if m == nil {
		m = make([]logic.Node, le.K)
		for i := range m {
			m[i] = noNode
		}
		le.memo[f] = m
	}
	if pos < len(m) && m[pos] != noNode {
		return m[pos], nil
	}
	n, err := le.truth(f, pos)
	if err != nil {
		return logic.False, err
	}
	if pos < len(m) {
		m[pos] = n
	}
	return n, nil
}

func (le *LassoEval) truth(f Formula, pos int) (logic.Node, error) {
	b := le.Ev.Ops.B
	switch v := f.(type) {
	case *FConst:
		if v.V {
			return logic.True, nil
		}
		return logic.False, nil
	case *FAtom:
		return le.Ev.Bool(v.E, pos)
	case *FNot:
		n, err := le.Truth(v.F, pos)
		if err != nil {
			return logic.False, err
		}
		return n.Not(), nil
	case *FAnd:
		l, err := le.Truth(v.L, pos)
		if err != nil {
			return logic.False, err
		}
		r, err := le.Truth(v.R, pos)
		if err != nil {
			return logic.False, err
		}
		return b.And(l, r), nil
	case *FOr:
		l, err := le.Truth(v.L, pos)
		if err != nil {
			return logic.False, err
		}
		r, err := le.Truth(v.R, pos)
		if err != nil {
			return logic.False, err
		}
		return b.Or(l, r), nil
	case *FNext:
		return le.Truth(v.F, le.advance(pos, v.N))
	case *FGlobally:
		acc := logic.True
		for _, j := range le.Reach(pos) {
			n, err := le.Truth(v.F, j)
			if err != nil {
				return logic.False, err
			}
			acc = b.And(acc, n)
		}
		return acc, nil
	case *FEventually:
		acc := logic.False
		for _, j := range le.Reach(pos) {
			n, err := le.Truth(v.F, j)
			if err != nil {
				return logic.False, err
			}
			acc = b.Or(acc, n)
		}
		return acc, nil
	case *FUntil:
		// OR over the walk: R holds at step j and L holds at all
		// earlier steps.
		acc := logic.False
		lAcc := logic.True
		for _, j := range le.path(pos) {
			r, err := le.Truth(v.R, j)
			if err != nil {
				return logic.False, err
			}
			acc = b.Or(acc, b.And(lAcc, r))
			l, err := le.Truth(v.L, j)
			if err != nil {
				return logic.False, err
			}
			lAcc = b.And(lAcc, l)
		}
		return acc, nil
	}
	return logic.False, &LowerError{"unknown formula node in lasso evaluation"}
}

// LassoFamily hands out LassoEval instances over one shared evaluator
// (and therefore one shared circuit builder) as a bounded unroll
// grows. Incremental clients ramp the bound K query by query; the
// family memoizes the evaluator for each (K, L) pair, and because all
// evaluators target the same structurally-hashed builder, formula
// cones that are insensitive to the bound collapse to the same gates
// across ramp steps — the CNF layer then emits each gate once.
type LassoFamily struct {
	Ev    *ExprEval
	evals map[[2]int]*LassoEval
}

// NewLassoFamily creates an empty family over the evaluator.
func NewLassoFamily(ev *ExprEval) *LassoFamily {
	return &LassoFamily{Ev: ev, evals: map[[2]int]*LassoEval{}}
}

// At returns the (K, L)-lasso evaluator, creating it on first use.
func (lf *LassoFamily) At(k, l int) *LassoEval {
	key := [2]int{k, l}
	if le, ok := lf.evals[key]; ok {
		return le
	}
	le := NewLassoEval(lf.Ev, k, l)
	lf.evals[key] = le
	return le
}

// TraceEnv is a simple Env over lazily allocated free inputs — the
// environment used for assertion-to-assertion equivalence where every
// referenced signal is an unconstrained input at each trace position.
type TraceEnv struct {
	B      *logic.Builder
	Widths map[string]int
	Consts map[string]ConstVal

	vars map[sigPos]bitvec.BV
}

// ConstVal is a named constant binding.
type ConstVal struct {
	Value uint64
	Width int
}

type sigPos struct {
	name string
	pos  int
}

// NewTraceEnv creates an environment over free per-position signals.
func NewTraceEnv(b *logic.Builder, widths map[string]int, consts map[string]ConstVal) *TraceEnv {
	return &TraceEnv{
		B:      b,
		Widths: widths,
		Consts: consts,
		vars:   map[sigPos]bitvec.BV{},
	}
}

// Signal implements Env.
func (te *TraceEnv) Signal(name string, pos int) (bitvec.BV, error) {
	w, ok := te.Widths[name]
	if !ok {
		return bitvec.BV{}, &ElabError{Reason: "undeclared identifier \"" + name + "\""}
	}
	key := sigPos{name, pos}
	if v, ok := te.vars[key]; ok {
		return v, nil
	}
	v := bitvec.Inputs(te.B, w)
	te.vars[key] = v
	return v, nil
}

// SignalWidth implements Env.
func (te *TraceEnv) SignalWidth(name string) (int, bool) {
	w, ok := te.Widths[name]
	return w, ok
}

// Constant implements Env.
func (te *TraceEnv) Constant(name string) (uint64, int, bool) {
	c, ok := te.Consts[name]
	return c.Value, c.Width, ok
}

// At returns the already-allocated signal inputs, if any.
func (te *TraceEnv) At(name string, pos int) (bitvec.BV, bool) {
	v, ok := te.vars[sigPos{name, pos}]
	return v, ok
}
