// Package ltl lowers SVA properties to a linear temporal logic core and
// evaluates that core symbolically over lasso-shaped traces. Together
// with the sat and logic packages it forms the reasoning engine that
// substitutes for the commercial formal tool in the paper's evaluation
// flow: assertion-to-assertion equivalence (internal/equiv) and
// property proving on RTL (internal/mc) are both built on it.
package ltl

import (
	"fmt"
	"slices"

	"fveval/internal/sva"
)

// Formula is a node of the LTL core. Atoms carry SVA boolean-layer
// expressions which are bit-blasted at evaluation time.
type Formula interface {
	fNode()
	String() string
}

// FTrue and FFalse are the constants.
type FConst struct{ V bool }

// FAtom is a boolean-layer expression evaluated at the current trace
// position ($past/$rose/$fell/$stable/$changed reference the previous
// position).
type FAtom struct{ E sva.Expr }

// FNot negates a formula.
type FNot struct{ F Formula }

// FAnd is conjunction.
type FAnd struct{ L, R Formula }

// FOr is disjunction.
type FOr struct{ L, R Formula }

// FNext advances N positions (N >= 1).
type FNext struct {
	N int
	F Formula
}

// FGlobally is G f.
type FGlobally struct{ F Formula }

// FEventually is strong F f.
type FEventually struct{ F Formula }

// FUntil is l U r (strong). Weak until is expressed as G l OR (l U r).
type FUntil struct{ L, R Formula }

func (*FConst) fNode()      {}
func (*FAtom) fNode()       {}
func (*FNot) fNode()        {}
func (*FAnd) fNode()        {}
func (*FOr) fNode()         {}
func (*FNext) fNode()       {}
func (*FGlobally) fNode()   {}
func (*FEventually) fNode() {}
func (*FUntil) fNode()      {}

func (f *FConst) String() string {
	if f.V {
		return "true"
	}
	return "false"
}
func (f *FAtom) String() string { return f.E.String() }
func (f *FNot) String() string  { return "!(" + f.F.String() + ")" }
func (f *FAnd) String() string {
	return "(" + f.L.String() + " & " + f.R.String() + ")"
}
func (f *FOr) String() string {
	return "(" + f.L.String() + " | " + f.R.String() + ")"
}
func (f *FNext) String() string {
	return fmt.Sprintf("X^%d(%s)", f.N, f.F.String())
}
func (f *FGlobally) String() string   { return "G(" + f.F.String() + ")" }
func (f *FEventually) String() string { return "F(" + f.F.String() + ")" }
func (f *FUntil) String() string {
	return "(" + f.L.String() + " U " + f.R.String() + ")"
}

// True and False are shared constants.
var (
	True  Formula = &FConst{V: true}
	False Formula = &FConst{V: false}
)

// Not returns the negation with light simplification.
func Not(f Formula) Formula {
	switch v := f.(type) {
	case *FConst:
		return &FConst{V: !v.V}
	case *FNot:
		return v.F
	}
	return &FNot{F: f}
}

// And conjoins with constant folding.
func And(l, r Formula) Formula {
	if c, ok := l.(*FConst); ok {
		if c.V {
			return r
		}
		return False
	}
	if c, ok := r.(*FConst); ok {
		if c.V {
			return l
		}
		return False
	}
	return &FAnd{L: l, R: r}
}

// Or disjoins with constant folding.
func Or(l, r Formula) Formula {
	if c, ok := l.(*FConst); ok {
		if c.V {
			return True
		}
		return r
	}
	if c, ok := r.(*FConst); ok {
		if c.V {
			return True
		}
		return l
	}
	return &FOr{L: l, R: r}
}

// Implies returns l -> r.
func Implies(l, r Formula) Formula { return Or(Not(l), r) }

// Next advances a formula by n positions (n == 0 returns f unchanged).
func Next(n int, f Formula) Formula {
	if n == 0 {
		return f
	}
	if c, ok := f.(*FConst); ok {
		return c
	}
	if x, ok := f.(*FNext); ok {
		return &FNext{N: n + x.N, F: x.F}
	}
	return &FNext{N: n, F: f}
}

// Depth returns the bounded temporal depth of the formula: the largest
// finite look-ahead needed before unbounded operators take over. The
// lasso bound is derived from it.
func Depth(f Formula) int {
	switch v := f.(type) {
	case *FConst, *FAtom:
		return 0
	case *FNot:
		return Depth(v.F)
	case *FAnd:
		return maxInt(Depth(v.L), Depth(v.R))
	case *FOr:
		return maxInt(Depth(v.L), Depth(v.R))
	case *FNext:
		return v.N + Depth(v.F)
	case *FGlobally:
		return 1 + Depth(v.F)
	case *FEventually:
		return 1 + Depth(v.F)
	case *FUntil:
		return 1 + maxInt(Depth(v.L), Depth(v.R))
	}
	return 0
}

// HasUnbounded reports whether the formula contains G, F, or U.
func HasUnbounded(f Formula) bool {
	switch v := f.(type) {
	case *FConst, *FAtom:
		return false
	case *FNot:
		return HasUnbounded(v.F)
	case *FAnd:
		return HasUnbounded(v.L) || HasUnbounded(v.R)
	case *FOr:
		return HasUnbounded(v.L) || HasUnbounded(v.R)
	case *FNext:
		return HasUnbounded(v.F)
	case *FGlobally, *FEventually, *FUntil:
		return true
	}
	return false
}

// UsesPast reports whether any atom references the previous position
// ($past/$rose/$fell/$stable/$changed).
func UsesPast(f Formula) bool {
	found := false
	walkAtoms(f, func(a *FAtom) {
		sva.WalkExprs(&sva.PropSeq{S: &sva.SeqExpr{E: a.E}}, func(e sva.Expr) {
			if c, ok := e.(*sva.Call); ok {
				switch c.Name {
				case "$past", "$rose", "$fell", "$stable", "$changed":
					found = true
				}
			}
		})
	})
	return found
}

func walkAtoms(f Formula, fn func(*FAtom)) {
	switch v := f.(type) {
	case *FAtom:
		fn(v)
	case *FNot:
		walkAtoms(v.F, fn)
	case *FAnd:
		walkAtoms(v.L, fn)
		walkAtoms(v.R, fn)
	case *FOr:
		walkAtoms(v.L, fn)
		walkAtoms(v.R, fn)
	case *FNext:
		walkAtoms(v.F, fn)
	case *FGlobally:
		walkAtoms(v.F, fn)
	case *FEventually:
		walkAtoms(v.F, fn)
	case *FUntil:
		walkAtoms(v.L, fn)
		walkAtoms(v.R, fn)
	}
}

// SignalNames returns the sorted identifiers referenced by the formula.
func SignalNames(f Formula) []string {
	set := map[string]bool{}
	walkAtoms(f, func(a *FAtom) {
		collectIdents(a.E, set)
	})
	var names []string
	for n := range set {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func collectIdents(e sva.Expr, set map[string]bool) {
	switch v := e.(type) {
	case *sva.Ident:
		set[v.Name] = true
	case *sva.Unary:
		collectIdents(v.X, set)
	case *sva.Binary:
		collectIdents(v.X, set)
		collectIdents(v.Y, set)
	case *sva.Cond:
		collectIdents(v.C, set)
		collectIdents(v.T, set)
		collectIdents(v.E, set)
	case *sva.Call:
		for _, a := range v.Args {
			collectIdents(a, set)
		}
	case *sva.Concat:
		for _, p := range v.Parts {
			collectIdents(p, set)
		}
	case *sva.Repl:
		collectIdents(v.Count, set)
		collectIdents(v.Value, set)
	case *sva.Index:
		collectIdents(v.X, set)
		collectIdents(v.Idx, set)
	case *sva.Select:
		collectIdents(v.X, set)
		collectIdents(v.Hi, set)
		collectIdents(v.Lo, set)
	case *sva.WidthCast:
		collectIdents(v.X, set)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
