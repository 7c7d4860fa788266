package sva

import (
	"fmt"
	"slices"
	"strings"
)

// KnownSystemFunctions is the set of system functions the formal tool
// accepts in assertion context, with their permitted argument counts.
var KnownSystemFunctions = map[string][2]int{
	"$countones": {1, 1},
	"$onehot":    {1, 1},
	"$onehot0":   {1, 1},
	"$isunknown": {1, 1},
	"$bits":      {1, 1},
	"$clog2":     {1, 1},
	"$past":      {1, 2},
	"$rose":      {1, 1},
	"$fell":      {1, 1},
	"$stable":    {1, 1},
	"$changed":   {1, 1},
}

// SyntaxError describes why an assertion failed the syntax check.
type SyntaxError struct {
	Reason string
}

func (e *SyntaxError) Error() string { return "sva: syntax: " + e.Reason }

// Validate performs the semantic checks that the commercial tool's
// compile step performs: known operators/system functions only, sane
// delay and repetition bounds. It mirrors the paper's Syntax metric:
// a response passes Syntax iff ParseAssertion succeeds and Validate
// returns nil.
func Validate(a *Assertion) error {
	if a.Body == nil {
		return &SyntaxError{"empty property"}
	}
	if a.DisableIff != nil {
		if err := validateExpr(a.DisableIff); err != nil {
			return err
		}
	}
	return validateProp(a.Body)
}

func validateProp(p Property) error {
	switch v := p.(type) {
	case *PropSeq:
		return validateSeq(v.S)
	case *PropNot:
		return validateProp(v.P)
	case *PropBinary:
		if err := validateProp(v.L); err != nil {
			return err
		}
		return validateProp(v.R)
	case *PropImpl:
		if err := validateSeq(v.S); err != nil {
			return err
		}
		if HasUnboundedTail(v.S) {
			return &SyntaxError{"unbounded sequence not allowed as implication antecedent"}
		}
		return validateProp(v.P)
	case *PropIfElse:
		if err := validateExpr(v.C); err != nil {
			return err
		}
		if err := validateProp(v.Then); err != nil {
			return err
		}
		if v.Else != nil {
			return validateProp(v.Else)
		}
		return nil
	case *PropAlways:
		return validateProp(v.P)
	case *PropEventually:
		if !v.Strong {
			return &SyntaxError{"unbounded weak eventually is not supported; use s_eventually"}
		}
		return validateProp(v.P)
	case *PropNexttime:
		return validateProp(v.P)
	case *PropUntil:
		if err := validateProp(v.L); err != nil {
			return err
		}
		return validateProp(v.R)
	}
	return &SyntaxError{fmt.Sprintf("unknown property node %T", p)}
}

func validateSeq(s Sequence) error {
	switch v := s.(type) {
	case *SeqExpr:
		return validateExpr(v.E)
	case *SeqDelay:
		if v.D.Lo < 0 || (!v.D.Inf && v.D.Hi < v.D.Lo) {
			return &SyntaxError{fmt.Sprintf("invalid delay range %s", v.D)}
		}
		if v.L != nil {
			if err := validateSeq(v.L); err != nil {
				return err
			}
		}
		return validateSeq(v.R)
	case *SeqRepeat:
		if v.Lo < 0 || (!v.Inf && v.Hi < v.Lo) {
			return &SyntaxError{fmt.Sprintf("invalid repetition range [*%d:%d]", v.Lo, v.Hi)}
		}
		return validateSeq(v.S)
	case *SeqBinary:
		if err := validateSeq(v.L); err != nil {
			return err
		}
		return validateSeq(v.R)
	case *SeqThroughout:
		if err := validateExpr(v.E); err != nil {
			return err
		}
		return validateSeq(v.S)
	case *SeqFirstMatch:
		return validateSeq(v.S)
	}
	return &SyntaxError{fmt.Sprintf("unknown sequence node %T", s)}
}

func validateExpr(e Expr) error {
	switch v := e.(type) {
	case *Ident, *Num:
		return nil
	case *Unary:
		return validateExpr(v.X)
	case *Binary:
		if err := validateExpr(v.X); err != nil {
			return err
		}
		return validateExpr(v.Y)
	case *Cond:
		if err := validateExpr(v.C); err != nil {
			return err
		}
		if err := validateExpr(v.T); err != nil {
			return err
		}
		return validateExpr(v.E)
	case *Call:
		if !strings.HasPrefix(v.Name, "$") {
			return &SyntaxError{fmt.Sprintf("%q is not a valid SVA operator or system function", v.Name)}
		}
		bounds, ok := KnownSystemFunctions[v.Name]
		if !ok {
			return &SyntaxError{fmt.Sprintf("unknown system function %q", v.Name)}
		}
		if len(v.Args) < bounds[0] || len(v.Args) > bounds[1] {
			return &SyntaxError{fmt.Sprintf("%s expects %d..%d arguments, got %d",
				v.Name, bounds[0], bounds[1], len(v.Args))}
		}
		for _, a := range v.Args {
			if err := validateExpr(a); err != nil {
				return err
			}
		}
		return nil
	case *Concat:
		for _, p := range v.Parts {
			if err := validateExpr(p); err != nil {
				return err
			}
		}
		return nil
	case *Repl:
		if err := validateExpr(v.Count); err != nil {
			return err
		}
		return validateExpr(v.Value)
	case *Index:
		if err := validateExpr(v.X); err != nil {
			return err
		}
		return validateExpr(v.Idx)
	case *Select:
		if err := validateExpr(v.X); err != nil {
			return err
		}
		if err := validateExpr(v.Hi); err != nil {
			return err
		}
		return validateExpr(v.Lo)
	case *WidthCast:
		return validateExpr(v.X)
	}
	return &SyntaxError{fmt.Sprintf("unknown expression node %T", e)}
}

// HasUnboundedTail reports whether a sequence can match arbitrarily far
// in the future (contains ##[a:$] or [*a:$]).
func HasUnboundedTail(s Sequence) bool {
	switch v := s.(type) {
	case *SeqExpr:
		return false
	case *SeqDelay:
		if v.D.Inf {
			return true
		}
		if v.L != nil && HasUnboundedTail(v.L) {
			return true
		}
		return HasUnboundedTail(v.R)
	case *SeqRepeat:
		return v.Inf || HasUnboundedTail(v.S)
	case *SeqBinary:
		return HasUnboundedTail(v.L) || HasUnboundedTail(v.R)
	case *SeqThroughout:
		return HasUnboundedTail(v.S)
	case *SeqFirstMatch:
		return HasUnboundedTail(v.S)
	}
	return false
}

// CheckSyntax parses and validates assertion source text, returning nil
// when the text passes the paper's Syntax metric.
func CheckSyntax(src string) error {
	a, err := ParseAssertion(src)
	if err != nil {
		return err
	}
	return Validate(a)
}

// WalkExprs calls f on every expression node reachable from the
// property, in evaluation order.
func WalkExprs(p Property, f func(Expr)) {
	walkPropExprs(p, f)
}

func walkPropExprs(p Property, f func(Expr)) {
	switch v := p.(type) {
	case *PropSeq:
		walkSeqExprs(v.S, f)
	case *PropNot:
		walkPropExprs(v.P, f)
	case *PropBinary:
		walkPropExprs(v.L, f)
		walkPropExprs(v.R, f)
	case *PropImpl:
		walkSeqExprs(v.S, f)
		walkPropExprs(v.P, f)
	case *PropIfElse:
		walkExprTree(v.C, f)
		walkPropExprs(v.Then, f)
		if v.Else != nil {
			walkPropExprs(v.Else, f)
		}
	case *PropAlways:
		walkPropExprs(v.P, f)
	case *PropEventually:
		walkPropExprs(v.P, f)
	case *PropNexttime:
		walkPropExprs(v.P, f)
	case *PropUntil:
		walkPropExprs(v.L, f)
		walkPropExprs(v.R, f)
	}
}

func walkSeqExprs(s Sequence, f func(Expr)) {
	switch v := s.(type) {
	case *SeqExpr:
		walkExprTree(v.E, f)
	case *SeqDelay:
		if v.L != nil {
			walkSeqExprs(v.L, f)
		}
		walkSeqExprs(v.R, f)
	case *SeqRepeat:
		walkSeqExprs(v.S, f)
	case *SeqBinary:
		walkSeqExprs(v.L, f)
		walkSeqExprs(v.R, f)
	case *SeqThroughout:
		walkExprTree(v.E, f)
		walkSeqExprs(v.S, f)
	case *SeqFirstMatch:
		walkSeqExprs(v.S, f)
	}
}

func walkExprTree(e Expr, f func(Expr)) {
	f(e)
	switch v := e.(type) {
	case *Unary:
		walkExprTree(v.X, f)
	case *Binary:
		walkExprTree(v.X, f)
		walkExprTree(v.Y, f)
	case *Cond:
		walkExprTree(v.C, f)
		walkExprTree(v.T, f)
		walkExprTree(v.E, f)
	case *Call:
		for _, a := range v.Args {
			walkExprTree(a, f)
		}
	case *Concat:
		for _, p := range v.Parts {
			walkExprTree(p, f)
		}
	case *Repl:
		walkExprTree(v.Count, f)
		walkExprTree(v.Value, f)
	case *Index:
		walkExprTree(v.X, f)
		walkExprTree(v.Idx, f)
	case *Select:
		walkExprTree(v.X, f)
		walkExprTree(v.Hi, f)
		walkExprTree(v.Lo, f)
	case *WidthCast:
		walkExprTree(v.X, f)
	}
}

// Signals returns the sorted set of identifier names referenced by the
// assertion body (and disable-iff condition).
func (a *Assertion) Signals() []string {
	set := map[string]bool{}
	collect := func(e Expr) {
		if id, ok := e.(*Ident); ok {
			set[id.Name] = true
		}
	}
	if a.DisableIff != nil {
		walkExprTree(a.DisableIff, collect)
	}
	WalkExprs(a.Body, collect)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch v := e.(type) {
	case *Ident:
		c := *v
		return &c
	case *Num:
		c := *v
		return &c
	case *Unary:
		return &Unary{Op: v.Op, X: CloneExpr(v.X)}
	case *Binary:
		return &Binary{Op: v.Op, X: CloneExpr(v.X), Y: CloneExpr(v.Y)}
	case *Cond:
		return &Cond{C: CloneExpr(v.C), T: CloneExpr(v.T), E: CloneExpr(v.E)}
	case *Call:
		c := &Call{Name: v.Name}
		for _, a := range v.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *Concat:
		c := &Concat{}
		for _, p := range v.Parts {
			c.Parts = append(c.Parts, CloneExpr(p))
		}
		return c
	case *Repl:
		return &Repl{Count: CloneExpr(v.Count), Value: CloneExpr(v.Value)}
	case *Index:
		return &Index{X: CloneExpr(v.X), Idx: CloneExpr(v.Idx)}
	case *Select:
		return &Select{X: CloneExpr(v.X), Hi: CloneExpr(v.Hi), Lo: CloneExpr(v.Lo)}
	case *WidthCast:
		return &WidthCast{X: CloneExpr(v.X), W: v.W}
	}
	panic(fmt.Sprintf("sva: CloneExpr: unknown node %T", e))
}

// CloneSeq deep-copies a sequence.
func CloneSeq(s Sequence) Sequence {
	switch v := s.(type) {
	case *SeqExpr:
		return &SeqExpr{E: CloneExpr(v.E)}
	case *SeqDelay:
		c := &SeqDelay{D: v.D, R: CloneSeq(v.R)}
		if v.L != nil {
			c.L = CloneSeq(v.L)
		}
		return c
	case *SeqRepeat:
		return &SeqRepeat{S: CloneSeq(v.S), Lo: v.Lo, Hi: v.Hi, Inf: v.Inf}
	case *SeqBinary:
		return &SeqBinary{Op: v.Op, L: CloneSeq(v.L), R: CloneSeq(v.R)}
	case *SeqThroughout:
		return &SeqThroughout{E: CloneExpr(v.E), S: CloneSeq(v.S)}
	case *SeqFirstMatch:
		return &SeqFirstMatch{S: CloneSeq(v.S)}
	}
	panic(fmt.Sprintf("sva: CloneSeq: unknown node %T", s))
}

// CloneProp deep-copies a property.
func CloneProp(p Property) Property {
	switch v := p.(type) {
	case *PropSeq:
		return &PropSeq{S: CloneSeq(v.S), Strong: v.Strong, Explicit: v.Explicit}
	case *PropNot:
		return &PropNot{P: CloneProp(v.P)}
	case *PropBinary:
		return &PropBinary{Op: v.Op, L: CloneProp(v.L), R: CloneProp(v.R)}
	case *PropImpl:
		return &PropImpl{S: CloneSeq(v.S), Overlap: v.Overlap, P: CloneProp(v.P)}
	case *PropIfElse:
		c := &PropIfElse{C: CloneExpr(v.C), Then: CloneProp(v.Then)}
		if v.Else != nil {
			c.Else = CloneProp(v.Else)
		}
		return c
	case *PropAlways:
		return &PropAlways{P: CloneProp(v.P), Strong: v.Strong}
	case *PropEventually:
		return &PropEventually{P: CloneProp(v.P), Strong: v.Strong}
	case *PropNexttime:
		return &PropNexttime{P: CloneProp(v.P), Strong: v.Strong}
	case *PropUntil:
		return &PropUntil{L: CloneProp(v.L), R: CloneProp(v.R), Strong: v.Strong, With: v.With}
	}
	panic(fmt.Sprintf("sva: CloneProp: unknown node %T", p))
}

// Clone deep-copies an assertion.
func (a *Assertion) Clone() *Assertion {
	c := &Assertion{
		Label:     a.Label,
		Kind:      a.Kind,
		ClockEdge: a.ClockEdge,
		ClockName: a.ClockName,
	}
	if a.DisableIff != nil {
		c.DisableIff = CloneExpr(a.DisableIff)
	}
	if a.Body != nil {
		c.Body = CloneProp(a.Body)
	}
	return c
}
