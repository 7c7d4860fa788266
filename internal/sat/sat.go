// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, VSIDS-style variable activity, phase
// saving, first-UIP clause learning, and Luby restarts.
//
// The solver is the decision engine underneath the formal backend: the
// assertion equivalence checker and the RTL model checker both reduce
// their questions to CNF satisfiability here.
package sat

import (
	"errors"
	"fmt"
)

// Lit is a literal: variable index v (1-based) encoded as 2v for the
// positive literal and 2v+1 for the negated literal.
type Lit int32

// NewLit returns the literal for variable v (1-based), negated if neg.
func NewLit(v int, neg bool) Lit {
	if v <= 0 {
		panic("sat: variable index must be positive")
	}
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the 1-based variable index of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// value of a variable assignment.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref addresses a clause in the solver's arena: the offset of its
// header word. Offset 0 is never a header, so cref 0 means no clause.
type cref uint32

// Arena layout (MiniSat's ClauseAllocator, minus the pointers): every
// clause is a header word, size<<2 | learnt<<1 | deleted, followed by
// its literals; a learnt clause is preceded by one more word, the index
// of its activity in Solver.clauseAct. Watchers, reasons and the clause
// lists hold offsets, so the garbage collector never scans the clause
// database.
const (
	hdrDeleted = 1
	hdrLearnt  = 2
)

type watcher struct {
	c       cref
	blocker Lit // if blocker is true, the clause is satisfied
}

// Solver is a CDCL SAT solver. The zero value is not usable; construct
// with New.
type Solver struct {
	nVars     int
	arena     []Lit     // every clause, addressed by cref
	clauseAct []float64 // learnt-clause activity, indexed from the arena
	wasted    int       // arena words held by deleted clauses
	clauses   []cref
	learnts   []cref
	watches   [][]watcher // indexed by literal
	vals      []lbool     // indexed by literal: the literal's value
	phase     []bool      // saved phase per var
	level     []int       // decision level per var
	reason    []cref      // antecedent clause per var
	trail     []Lit
	trailLim  []int // trail index per decision level
	qhead     int

	activity []float64
	varInc   float64
	order    *varHeap

	claInc float64

	seen       []bool
	learnt     []Lit // analyze's scratch: the clause being learnt...
	toClear    []Lit // ...the variables it marked seen...
	stack      []Lit // ...and litRedundant's work stack
	conflicts  int64
	decisions  int64
	propsCount int64
	solves     int64

	maxConflicts int64 // per-call conflict budget; 0 = unlimited

	ok bool // false once an empty clause is derived
}

// Stats reports cumulative solver statistics. Counters accumulate
// across Solve calls on the same solver, so incremental clients can
// compute per-call deltas by snapshotting before and after a call.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Solves       int64
	Learnt       int
	Clauses      int
	Vars         int
}

// ErrBudget is returned by Solve when the conflict budget set via
// SetBudget is exhausted before a verdict is reached.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// New returns an empty solver with no variables.
func New() *Solver {
	s := &Solver{
		varInc: 1.0,
		claInc: 1.0,
		ok:     true,
	}
	s.order = newVarHeap(&s.activity)
	// index 0 of per-var slices is unused (vars are 1-based), as are
	// literal slots 0 and 1 and arena offset 0
	s.arena = append(s.arena, 0)
	s.vals = append(s.vals, lUndef, lUndef)
	s.phase = append(s.phase, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, 0)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return s
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	s.nVars++
	v := s.nVars
	s.vals = append(s.vals, lUndef, lUndef)
	s.phase = append(s.phase, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, 0)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// SetBudget limits the number of conflicts each Solve call may spend;
// 0 means unlimited. The limit holds per conflict: a call with no
// verdict stops at its first conflict past the budget, whatever the
// restart schedule. The budget is a per-call delta, not a lifetime
// cap: every Solve starts from a fresh allowance, so an incremental
// client issuing many calls on one solver keeps a uniform
// conflicts-per-query budget regardless of what earlier calls spent.
func (s *Solver) SetBudget(conflicts int64) { s.maxConflicts = conflicts }

// Stats returns solver statistics.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.conflicts,
		Decisions:    s.decisions,
		Propagations: s.propsCount,
		Solves:       s.solves,
		Learnt:       len(s.learnts),
		Clauses:      len(s.clauses),
		Vars:         s.nVars,
	}
}

func (s *Solver) valueLit(l Lit) lbool { return s.vals[l] }

// lits returns clause c's literals, aliasing the arena: valid until
// the next clause is allocated.
func (s *Solver) lits(c cref) []Lit {
	n := cref(s.arena[c] >> 2)
	return s.arena[c+1 : c+1+n : c+1+n]
}

func (s *Solver) isLearnt(c cref) bool { return s.arena[c]&hdrLearnt != 0 }

func (s *Solver) deleted(c cref) bool { return s.arena[c]&hdrDeleted != 0 }

// act points at learnt clause c's activity.
func (s *Solver) act(c cref) *float64 { return &s.clauseAct[s.arena[c-1]] }

// alloc appends a clause to the arena and returns its offset.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	hdr := Lit(len(lits) << 2)
	if learnt {
		s.arena = append(s.arena, Lit(len(s.clauseAct)))
		s.clauseAct = append(s.clauseAct, 0)
		hdr |= hdrLearnt
	}
	c := cref(len(s.arena))
	s.arena = append(s.arena, hdr)
	s.arena = append(s.arena, lits...)
	return c
}

// AddClause adds a clause (a disjunction of literals). It returns false
// if the formula is already known unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called at non-root decision level")
	}
	// Normalize: sort-free dedupe, drop false lits, detect tautology.
	// Clauses here are tiny (Tseitin emits 2-3 literals), so a linear
	// scan over a stack buffer replaces the per-call map the old
	// normalization allocated — AddClause runs ~3× per encoded gate
	// and was a top allocation site of the whole backend.
	var buf [8]Lit
	out := buf[:0]
	if len(lits) > len(buf) {
		out = make([]Lit, 0, len(lits))
	}
	for _, l := range lits {
		if l.Var() <= 0 || l.Var() > s.nVars {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		switch s.valueLit(l) {
		case lTrue:
			return true // clause already satisfied at root
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l.Not() {
				return true // tautology
			}
			if o == l {
				dup = true
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], 0)
		if s.propagate() != 0 {
			s.ok = false
			return false
		}
		return true
	}
	c := s.alloc(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c cref) {
	// watch the first two literals
	lits := s.lits(c)
	w0, w1 := lits[0], lits[1]
	s.watches[w0.Not()] = append(s.watches[w0.Not()], watcher{c, w1})
	s.watches[w1.Not()] = append(s.watches[w1.Not()], watcher{c, w0})
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; returns a conflicting clause or
// 0.
func (s *Solver) propagate() cref {
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propsCount++
		ws := s.watches[p]
		kept := ws[:0]
		var confl cref
		falseLit := p.Not()
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != 0 {
				kept = append(kept, ws[i:]...)
				break
			}
			if vals[w.blocker] == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			lits := s.lits(c)
			// ensure lits[0] is the other watched literal
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// search replacement watch
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// clause is unit or conflicting
			kept = append(kept, watcher{c, first})
			if vals[first] == lFalse {
				confl = c
				s.qhead = len(s.trail)
				continue
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
		if confl != 0 {
			return confl
		}
	}
	return 0
}

// analyze computes a first-UIP learnt clause and the backtrack level.
// The clause is the solver's scratch, valid until the next analyze.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 reserved for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.isLearnt(confl) {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range s.lits(confl)[start:] {
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// pick next literal on trail
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		confl = s.reason[v]
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Conflict-clause minimization (recursive, via reason clauses).
	// Every variable whose seen flag is set during analysis — including
	// literals dropped by minimization and variables marked inside
	// litRedundant — must be cleared before returning, or the next
	// analysis round sees stale flags and miscounts paths.
	toClear := append(s.toClear[:0], learnt...)
	abstract := 0
	for _, l := range learnt[1:] {
		abstract |= 1 << (uint(s.level[l.Var()]) & 31)
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		l := learnt[i]
		if s.reason[l.Var()] == 0 || !s.litRedundant(l, abstract, &toClear) {
			learnt[j] = l
			j++
		}
	}
	out := learnt[:j]

	// compute backtrack level
	btLevel := 0
	if len(out) > 1 {
		maxI := 1
		for i := 2; i < len(out); i++ {
			if s.level[out[i].Var()] > s.level[out[maxI].Var()] {
				maxI = i
			}
		}
		out[1], out[maxI] = out[maxI], out[1]
		btLevel = s.level[out[1].Var()]
	}
	for _, l := range toClear {
		s.seen[l.Var()] = false
	}
	s.learnt, s.toClear = learnt, toClear
	return out, btLevel
}

// litRedundant checks whether literal l is implied by the remaining
// learnt-clause literals (standard clause minimization). Variables it
// marks seen are recorded in toClear for the caller to reset.
func (s *Solver) litRedundant(l Lit, abstract int, toClear *[]Lit) bool {
	s.stack = append(s.stack[:0], l)
	top := len(*toClear)
	for len(s.stack) > 0 {
		p := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		c := s.reason[p.Var()]
		if c == 0 {
			// Roll back marks made during this call only.
			for _, q := range (*toClear)[top:] {
				s.seen[q.Var()] = false
			}
			*toClear = (*toClear)[:top]
			return false
		}
		for _, q := range s.lits(c)[1:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == 0 || (1<<(uint(s.level[v])&31))&abstract == 0 {
				for _, qq := range (*toClear)[top:] {
					s.seen[qq.Var()] = false
				}
				*toClear = (*toClear)[:top]
				return false
			}
			s.seen[v] = true
			*toClear = append(*toClear, q)
			s.stack = append(s.stack, q)
		}
	}
	return true
}

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.vals[2*v] == lTrue
		s.vals[l], s.vals[l.Not()] = lUndef, lUndef
		s.reason[v] = 0
		if !s.order.inHeap(v) {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.order.inHeap(v) {
		s.order.decrease(v)
	}
}

func (s *Solver) bumpClause(c cref) {
	a := s.act(c)
	*a += s.claInc
	if *a > 1e20 {
		for i := range s.clauseAct {
			s.clauseAct[i] *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) pickBranchVar() int {
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.vals[2*v] == lUndef {
			return v
		}
	}
	return 0
}

// reduceDB removes half of the learnt clauses with lowest activity.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 100 {
		return
	}
	// partial selection: simple threshold at median via nth-element-ish pass
	acts := make([]float64, len(s.learnts))
	for i, c := range s.learnts {
		acts[i] = *s.act(c)
	}
	med := quickMedian(acts)
	kept := s.learnts[:0]
	removed := 0
	for _, c := range s.learnts {
		if len(s.lits(c)) <= 2 || *s.act(c) >= med || s.locked(c) {
			kept = append(kept, c)
		} else {
			s.arena[c] |= hdrDeleted
			s.wasted += len(s.lits(c)) + 2
			removed++
		}
	}
	if removed == 0 {
		return
	}
	s.learnts = kept
	for li := range s.watches {
		ws := s.watches[li]
		out := ws[:0]
		for _, w := range ws {
			if !s.deleted(w.c) {
				out = append(out, w)
			}
		}
		s.watches[li] = out
	}
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

// compact moves the live clauses into a fresh arena, in clause-list
// order, and rewrites every offset that names one. Watch lists keep
// their order, so propagation visits clauses exactly as before.
func (s *Solver) compact() {
	to := make([]Lit, 1, len(s.arena)-s.wasted)
	act := make([]float64, 0, len(s.learnts))
	// move copies c and leaves its new offset in its old first literal,
	// marking the old header deleted.
	move := func(c cref) cref {
		if s.isLearnt(c) {
			to = append(to, Lit(len(act)))
			act = append(act, *s.act(c))
		}
		nc := cref(len(to))
		to = append(to, s.arena[c])
		to = append(to, s.lits(c)...)
		s.arena[c] |= hdrDeleted
		s.arena[c+1] = Lit(nc)
		return nc
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	moved := func(c cref) cref { return cref(s.arena[c+1]) }
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = moved(ws[i].c)
		}
	}
	for v, c := range s.reason {
		if c != 0 {
			s.reason[v] = moved(c)
		}
	}
	s.arena, s.clauseAct, s.wasted = to, act, 0
}

func (s *Solver) locked(c cref) bool {
	first := s.lits(c)[0]
	return s.reason[first.Var()] == c && s.vals[first] == lTrue
}

func quickMedian(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	// median-of-medians not needed; simple insertion on copy is fine for
	// the sizes reduceDB sees (bounded by learnt-clause count).
	b := append([]float64(nil), a...)
	lo, hi, k := 0, len(b)-1, len(b)/2
	for lo < hi {
		p := b[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for b[i] < p {
				i++
			}
			for b[j] > p {
				j--
			}
			if i <= j {
				b[i], b[j] = b[j], b[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return b[k]
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// search runs CDCL for up to maxConfl conflicts. done=false means the
// budget expired (restart).
func (s *Solver) search(maxConfl int64, assumptions []Lit, learntCap *int) (sat bool, done bool) {
	conflC := int64(0)
	for {
		confl := s.propagate()
		if confl != 0 {
			s.conflicts++
			conflC++
			if s.decisionLevel() == 0 {
				s.ok = false
				return false, true
			}
			learnt, btLevel := s.analyze(confl)
			s.backtrack(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], 0)
			} else {
				c := s.alloc(learnt, true)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			continue
		}
		if conflC >= maxConfl {
			s.backtrack(0)
			return false, false
		}
		if len(s.learnts) > *learntCap {
			s.reduceDB()
			*learntCap += *learntCap / 10
		}
		// enqueue assumptions first
		next := Lit(-1)
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.valueLit(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				// an assumption is already falsified: unsat under them
				return false, true
			}
			next = p
			break
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v == 0 {
				return true, true // all vars assigned: model found
			}
			s.decisions++
			next = NewLit(v, !s.phase[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, 0)
	}
}

// Solve determines satisfiability under the given assumption literals.
// Assumptions are enqueued as pseudo-decisions below all search
// decisions, so learnt clauses and variable activity carry over to
// later Solve calls, and clauses may be added between calls. It
// returns (true, model, nil) if satisfiable, where model[v] is variable
// v's value (index 0 unused); (false, nil, nil) if unsatisfiable; and
// (false, nil, ErrBudget) if the per-call conflict budget ran out.
// search returns with the full assignment still on the trail only when
// SAT, so the model is copied before backtracking to root.
func (s *Solver) Solve(assumptions ...Lit) (bool, []bool, error) {
	s.solves++
	if !s.ok {
		return false, nil, nil
	}
	s.backtrack(0)
	restart := int64(0)
	baseConflicts := s.conflicts
	learntCap := len(s.clauses)/3 + 100
	for {
		restart++
		window := 100 * luby(restart)
		if s.maxConflicts > 0 {
			// The window ends at the first conflict past the budget.
			window = min(window, s.maxConflicts-(s.conflicts-baseConflicts)+1)
		}
		res, done := s.search(window, assumptions, &learntCap)
		if done {
			var m []bool
			if res {
				m = make([]bool, s.nVars+1)
				for v := 1; v <= s.nVars; v++ {
					m[v] = s.vals[2*v] == lTrue
				}
			}
			s.backtrack(0)
			return res, m, nil
		}
		if s.maxConflicts > 0 && s.conflicts-baseConflicts > s.maxConflicts {
			s.backtrack(0)
			return false, nil, ErrBudget
		}
	}
}

// varHeap is a binary max-heap over variable activity.
type varHeap struct {
	heap     []int
	indices  []int // var -> position+1 (0 = absent)
	activity *[]float64
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{activity: act, indices: make([]int, 1)}
}

func (h *varHeap) less(a, b int) bool {
	return (*h.activity)[a] > (*h.activity)[b]
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) inHeap(v int) bool {
	return v < len(h.indices) && h.indices[v] != 0
}

func (h *varHeap) push(v int) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.indices[v] = 0
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) decrease(v int) { // activity increased -> move up
	h.up(h.indices[v] - 1)
}

func (h *varHeap) up(i int) {
	x := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(x, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = i + 1
		i = p
	}
	h.heap[i] = x
	h.indices[x] = i + 1
}

func (h *varHeap) down(i int) {
	x := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], x) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = i + 1
		i = c
	}
	h.heap[i] = x
	h.indices[x] = i + 1
}
