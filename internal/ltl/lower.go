package ltl

import (
	"fmt"

	"fveval/internal/sva"
)

// LowerError reports an SVA construct the formal backend cannot
// elaborate (the equivalent of a tool elaboration error).
type LowerError struct{ Reason string }

func (e *LowerError) Error() string { return "ltl: " + e.Reason }

// maxMatches bounds the sequence match-shape expansion.
const maxMatches = 4096

// match is one way a bounded sequence can match: Cond must hold
// (anchored at the sequence start) and the match ends End positions
// later. End == -1 denotes the empty match.
type match struct {
	End  int
	Cond Formula
}

// LowerProperty lowers an SVA property to the LTL core.
func LowerProperty(p sva.Property) (Formula, error) {
	return lowerProp(p)
}

// LowerAssertion lowers an assertion body. The disable-iff condition is
// not folded in; callers handle abort semantics (see package equiv and
// package mc for the two strategies and their soundness arguments).
func LowerAssertion(a *sva.Assertion) (Formula, error) {
	if a.Body == nil {
		return nil, &LowerError{"assertion has no body"}
	}
	return lowerProp(a.Body)
}

func lowerProp(p sva.Property) (Formula, error) {
	switch v := p.(type) {
	case *sva.PropSeq:
		if v.Strong {
			return strongSeq(v.S)
		}
		return weakSeq(v.S)
	case *sva.PropNot:
		f, err := lowerProp(v.P)
		if err != nil {
			return nil, err
		}
		return Not(f), nil
	case *sva.PropBinary:
		l, err := lowerProp(v.L)
		if err != nil {
			return nil, err
		}
		r, err := lowerProp(v.R)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "and":
			return And(l, r), nil
		case "or":
			return Or(l, r), nil
		case "implies":
			return Implies(l, r), nil
		case "iff":
			return Or(And(l, r), And(Not(l), Not(r))), nil
		}
		return nil, &LowerError{fmt.Sprintf("unknown property operator %q", v.Op)}
	case *sva.PropImpl:
		ms, err := seqMatches(v.S)
		if err != nil {
			return nil, err
		}
		cons, err := lowerProp(v.P)
		if err != nil {
			return nil, err
		}
		shift := 0
		if !v.Overlap {
			shift = 1
		}
		acc := True
		for _, m := range ms {
			if m.End < 0 {
				// Empty antecedent matches have no end point to anchor
				// the consequent; they never trigger (IEEE 1800 16.12.6).
				continue
			}
			acc = And(acc, Implies(m.Cond, Next(m.End+shift, cons)))
		}
		return acc, nil
	case *sva.PropIfElse:
		c := atom(v.C)
		then, err := lowerProp(v.Then)
		if err != nil {
			return nil, err
		}
		els := True
		if v.Else != nil {
			els, err = lowerProp(v.Else)
			if err != nil {
				return nil, err
			}
		}
		return And(Implies(c, then), Implies(Not(c), els)), nil
	case *sva.PropAlways:
		f, err := lowerProp(v.P)
		if err != nil {
			return nil, err
		}
		return &FGlobally{F: f}, nil
	case *sva.PropEventually:
		f, err := lowerProp(v.P)
		if err != nil {
			return nil, err
		}
		if !v.Strong {
			return nil, &LowerError{"weak unbounded eventually is not supported"}
		}
		return &FEventually{F: f}, nil
	case *sva.PropNexttime:
		f, err := lowerProp(v.P)
		if err != nil {
			return nil, err
		}
		return Next(1, f), nil
	case *sva.PropUntil:
		l, err := lowerProp(v.L)
		if err != nil {
			return nil, err
		}
		r, err := lowerProp(v.R)
		if err != nil {
			return nil, err
		}
		if v.With {
			// l until_with r: once r occurs, l must hold through that
			// cycle: l U (l & r).
			r = And(l, r)
		}
		u := Formula(&FUntil{L: l, R: r})
		if !v.Strong {
			u = Or(&FGlobally{F: l}, u)
		}
		return u, nil
	}
	return nil, &LowerError{fmt.Sprintf("unknown property node %T", p)}
}

func atom(e sva.Expr) Formula { return &FAtom{E: e} }

// strongSeq lowers a sequence used as a strong property: some match
// must complete.
func strongSeq(s sva.Sequence) (Formula, error) {
	if !sva.HasUnboundedTail(s) {
		ms, err := seqMatches(s)
		if err != nil {
			return nil, err
		}
		acc := False
		for _, m := range ms {
			acc = Or(acc, m.Cond)
		}
		return acc, nil
	}
	switch v := s.(type) {
	case *sva.SeqDelay:
		if v.D.Inf {
			// prefix ##[a:$] rest  ->  prefix matched, then F(rest)
			// after at least a more cycles.
			rest, err := strongSeq(v.R)
			if err != nil {
				return nil, err
			}
			target := Formula(&FEventually{F: rest})
			if v.L == nil {
				return Next(v.D.Lo, target), nil
			}
			if sva.HasUnboundedTail(v.L) {
				return nil, &LowerError{"nested unbounded delays are not supported"}
			}
			ms, err := seqMatches(v.L)
			if err != nil {
				return nil, err
			}
			acc := False
			for _, m := range ms {
				acc = Or(acc, And(m.Cond, Next(m.End+v.D.Lo, target)))
			}
			return acc, nil
		}
		// Bounded delay whose operand is unbounded.
		if v.L != nil && sva.HasUnboundedTail(v.L) {
			return nil, &LowerError{"unbounded sequence on the left of a bounded delay"}
		}
		rest, err := strongSeq(v.R)
		if err != nil {
			return nil, err
		}
		var heads []match
		if v.L == nil {
			heads = []match{{End: 0, Cond: True}}
		} else {
			heads, err = seqMatches(v.L)
			if err != nil {
				return nil, err
			}
		}
		acc := False
		for _, m := range heads {
			for d := v.D.Lo; d <= v.D.Hi; d++ {
				acc = Or(acc, And(m.Cond, Next(m.End+d, rest)))
			}
		}
		return acc, nil
	case *sva.SeqRepeat:
		if v.Inf {
			inner, err := seqMatches(v.S)
			if err != nil {
				return nil, err
			}
			// s[*a:$]: a consecutive repetitions suffice for a
			// (shortest) match.
			if v.Lo == 0 {
				return True, nil
			}
			rep := &sva.SeqRepeat{S: v.S, Lo: v.Lo, Hi: v.Lo}
			_ = inner
			return strongSeq(rep)
		}
		return nil, &LowerError{"unsupported bounded repetition of unbounded sequence"}
	}
	return nil, &LowerError{fmt.Sprintf("unsupported unbounded sequence %s as strong property", s.String())}
}

// weakSeq lowers a sequence used as a weak property: no finite prefix
// may rule out every possible match. On infinite traces an unbounded
// tail can always still arrive, so the weak obligation reduces to the
// bounded prefix of the sequence.
func weakSeq(s sva.Sequence) (Formula, error) {
	if !sva.HasUnboundedTail(s) {
		return strongSeq(s) // bounded: weak and strong coincide
	}
	switch v := s.(type) {
	case *sva.SeqDelay:
		if v.D.Inf {
			// prefix ##[a:$] rest: only the prefix is ever obligated;
			// the unbounded tail keeps every prefix alive (assuming
			// rest is satisfiable, which elaboration checks for the
			// benchmark's boolean tails).
			if v.L == nil {
				return True, nil
			}
			if sva.HasUnboundedTail(v.L) {
				return nil, &LowerError{"nested unbounded delays are not supported"}
			}
			ms, err := seqMatches(v.L)
			if err != nil {
				return nil, err
			}
			acc := False
			for _, m := range ms {
				acc = Or(acc, m.Cond)
			}
			return acc, nil
		}
		if v.L != nil && sva.HasUnboundedTail(v.L) {
			return nil, &LowerError{"unbounded sequence on the left of a bounded delay"}
		}
		rest, err := weakSeq(v.R)
		if err != nil {
			return nil, err
		}
		var heads []match
		if v.L == nil {
			heads = []match{{End: 0, Cond: True}}
		} else {
			heads, err = seqMatches(v.L)
			if err != nil {
				return nil, err
			}
		}
		acc := False
		for _, m := range heads {
			for d := v.D.Lo; d <= v.D.Hi; d++ {
				acc = Or(acc, And(m.Cond, Next(m.End+d, rest)))
			}
		}
		return acc, nil
	case *sva.SeqRepeat:
		if v.Inf {
			if v.Lo == 0 {
				return True, nil
			}
			return weakSeq(&sva.SeqRepeat{S: v.S, Lo: v.Lo, Hi: v.Lo})
		}
		return nil, &LowerError{"unsupported bounded repetition of unbounded sequence"}
	}
	return nil, &LowerError{fmt.Sprintf("unsupported unbounded sequence %s as weak property", s.String())}
}

// seqMatches expands a bounded sequence into its finite set of match
// shapes.
func seqMatches(s sva.Sequence) ([]match, error) {
	switch v := s.(type) {
	case *sva.SeqExpr:
		return []match{{End: 0, Cond: atom(v.E)}}, nil
	case *sva.SeqDelay:
		if v.D.Inf {
			return nil, &LowerError{"unbounded delay in bounded context"}
		}
		var left []match
		if v.L == nil {
			// A leading delay ##d anchors the operand exactly d
			// positions ahead: model it as a virtual length-1 head
			// ending at offset 0.
			left = []match{{End: 0, Cond: True}}
		} else {
			var err error
			left, err = seqMatches(v.L)
			if err != nil {
				return nil, err
			}
		}
		right, err := seqMatches(v.R)
		if err != nil {
			return nil, err
		}
		var out []match
		for _, ml := range left {
			for d := v.D.Lo; d <= v.D.Hi; d++ {
				for _, mr := range right {
					start := ml.End + d // start of right match
					if mr.End < 0 {
						// right is empty: composed match keeps left's
						// span, the delay still elapses conceptually
						// but contributes no obligation.
						out = append(out, match{End: ml.End, Cond: ml.Cond})
						continue
					}
					if start < 0 {
						// ##0 against an empty left: right anchors at
						// the sequence start.
						start = 0
					}
					out = append(out, match{
						End:  start + mr.End,
						Cond: And(ml.Cond, Next(start, mr.Cond)),
					})
				}
			}
			if len(out) > maxMatches {
				return nil, &LowerError{"sequence match expansion too large"}
			}
		}
		return dedupe(out), nil
	case *sva.SeqRepeat:
		if v.Inf {
			return nil, &LowerError{"unbounded repetition in bounded context"}
		}
		inner, err := seqMatches(v.S)
		if err != nil {
			return nil, err
		}
		var out []match
		for k := v.Lo; k <= v.Hi; k++ {
			ms, err := repeatK(inner, k)
			if err != nil {
				return nil, err
			}
			out = append(out, ms...)
			if len(out) > maxMatches {
				return nil, &LowerError{"repetition expansion too large"}
			}
		}
		return dedupe(out), nil
	case *sva.SeqBinary:
		left, err := seqMatches(v.L)
		if err != nil {
			return nil, err
		}
		right, err := seqMatches(v.R)
		if err != nil {
			return nil, err
		}
		var out []match
		switch v.Op {
		case "or":
			out = append(append(out, left...), right...)
		case "and":
			for _, ml := range left {
				for _, mr := range right {
					out = append(out, match{
						End:  maxInt(ml.End, mr.End),
						Cond: And(ml.Cond, mr.Cond),
					})
				}
			}
		case "intersect":
			for _, ml := range left {
				for _, mr := range right {
					if ml.End == mr.End {
						out = append(out, match{End: ml.End, Cond: And(ml.Cond, mr.Cond)})
					}
				}
			}
		case "within":
			// L within R: a match of L occurs inside R's span.
			for _, mr := range right {
				for _, ml := range left {
					if ml.End < 0 {
						out = append(out, mr)
						continue
					}
					for off := 0; off+ml.End <= mr.End; off++ {
						out = append(out, match{
							End:  mr.End,
							Cond: And(mr.Cond, Next(off, ml.Cond)),
						})
					}
				}
			}
		default:
			return nil, &LowerError{fmt.Sprintf("unknown sequence operator %q", v.Op)}
		}
		if len(out) > maxMatches {
			return nil, &LowerError{"sequence combination too large"}
		}
		return dedupe(out), nil
	case *sva.SeqThroughout:
		inner, err := seqMatches(v.S)
		if err != nil {
			return nil, err
		}
		var out []match
		for _, m := range inner {
			cond := m.Cond
			for i := 0; i <= m.End; i++ {
				cond = And(cond, Next(i, atom(v.E)))
			}
			out = append(out, match{End: m.End, Cond: cond})
		}
		return out, nil
	case *sva.SeqFirstMatch:
		inner, err := seqMatches(v.S)
		if err != nil {
			return nil, err
		}
		// A match is a first match iff no strictly earlier-ending match
		// also fires.
		var out []match
		for _, m := range inner {
			cond := m.Cond
			for _, other := range inner {
				if other.End < m.End {
					cond = And(cond, Not(other.Cond))
				}
			}
			out = append(out, match{End: m.End, Cond: cond})
		}
		return out, nil
	}
	return nil, &LowerError{fmt.Sprintf("unknown sequence node %T", s)}
}

// repeatK concatenates k copies of the inner match set with ##1 fusion
// between repetitions.
func repeatK(inner []match, k int) ([]match, error) {
	if k == 0 {
		return []match{{End: -1, Cond: True}}, nil
	}
	acc := inner
	for rep := 1; rep < k; rep++ {
		var next []match
		for _, ml := range acc {
			for _, mr := range inner {
				start := ml.End + 1
				if mr.End < 0 {
					next = append(next, ml)
					continue
				}
				if start < 0 {
					start = 0
				}
				next = append(next, match{
					End:  start + mr.End,
					Cond: And(ml.Cond, Next(start, mr.Cond)),
				})
			}
		}
		if len(next) > maxMatches {
			return nil, &LowerError{"repetition expansion too large"}
		}
		acc = next
	}
	return acc, nil
}

func dedupe(ms []match) []match {
	seen := map[string]bool{}
	out := ms[:0]
	for _, m := range ms {
		key := fmt.Sprintf("%d|%s", m.End, m.Cond.String())
		if !seen[key] {
			seen[key] = true
			out = append(out, m)
		}
	}
	return out
}
