package sat

import (
	"errors"
	"testing"
)

// Tests for the incremental (assumption-based) solver interface: unsat
// verdicts under assumptions, learnt-clause retention across Solve calls, clause addition
// between calls, and per-call conflict-budget deltas.

// addPigeonhole encodes the pigeonhole principle PHP(pigeons, holes)
// with every clause gated behind the activation literal act: the
// instance is unsatisfiable for pigeons > holes, but only under the
// assumption act, so the solver survives refuting it.
func addPigeonhole(s *Solver, act Lit, pigeons, holes int) {
	p := make([][]Lit, pigeons)
	for i := 0; i < pigeons; i++ {
		p[i] = make([]Lit, holes)
		for j := 0; j < holes; j++ {
			p[i][j] = NewLit(s.NewVar(), false)
		}
	}
	// every pigeon sits in some hole
	for i := 0; i < pigeons; i++ {
		lits := []Lit{act.Not()}
		lits = append(lits, p[i]...)
		s.AddClause(lits...)
	}
	// no two pigeons share a hole
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(act.Not(), p[i][j].Not(), p[k][j].Not())
			}
		}
	}
}

// The three tests below keep the verdicts of unsat-under-assumption
// answers: which assumption subsets are unsat and which are not.

func TestCoreIsSubsetOfAssumptions(t *testing.T) {
	s := New()
	a := NewLit(s.NewVar(), false)
	b := NewLit(s.NewVar(), false)
	c := NewLit(s.NewVar(), false) // irrelevant to the conflict
	x := NewLit(s.NewVar(), false)
	s.AddClause(a.Not(), x)
	s.AddClause(b.Not(), x.Not())

	ok, _, err := s.Solve(a, b, c)
	if err != nil || ok {
		t.Fatalf("want unsat, got ok=%v err=%v", ok, err)
	}
	// {a, b} alone already forces unsatisfiability.
	ok, _, err = s.Solve(a, b)
	if err != nil || ok {
		t.Fatalf("re-solving under {a, b} must stay unsat, got ok=%v err=%v", ok, err)
	}
	// Assuming only the irrelevant literal is sat.
	ok, _, err = s.Solve(c)
	if err != nil || !ok {
		t.Fatalf("assuming only %v must be sat, got ok=%v err=%v", c, ok, err)
	}
}

func TestCoreEmptyWhenUnconditionallyUnsat(t *testing.T) {
	s := New()
	x := NewLit(s.NewVar(), false)
	y := NewLit(s.NewVar(), false)
	s.AddClause(x)
	s.AddClause(x.Not(), y)
	s.AddClause(y.Not())
	ok, _, err := s.Solve(NewLit(s.NewVar(), false))
	if err != nil || ok {
		t.Fatalf("want unsat, got ok=%v err=%v", ok, err)
	}
	// The clause database itself is unsat: no assumptions needed.
	if ok, _, err := s.Solve(); err != nil || ok {
		t.Fatalf("want unsat without assumptions, got ok=%v err=%v", ok, err)
	}
}

func TestContradictoryAssumptionsCore(t *testing.T) {
	s := New()
	x := NewLit(s.NewVar(), false)
	s.AddClause(x, x.Not()) // tautology; solver otherwise unconstrained
	ok, _, err := s.Solve(x, x.Not())
	if err != nil || ok {
		t.Fatalf("contradictory assumptions must be unsat, got ok=%v err=%v", ok, err)
	}
	for _, l := range []Lit{x, x.Not()} {
		if ok, _, err := s.Solve(l); err != nil || !ok {
			t.Fatalf("assuming only %v must be sat, got ok=%v err=%v", l, ok, err)
		}
	}
}

func TestLearntClausesSurviveAcrossSolves(t *testing.T) {
	s := New()
	act := NewLit(s.NewVar(), false)
	addPigeonhole(s, act, 5, 4)

	ok, _, err := s.Solve(act)
	if err != nil || ok {
		t.Fatalf("gated pigeonhole must be unsat under act, got ok=%v err=%v", ok, err)
	}
	st1 := s.Stats()
	if st1.Conflicts == 0 {
		t.Fatal("refuting the pigeonhole must cost conflicts")
	}
	if st1.Learnt == 0 && st1.Conflicts > 1 {
		t.Fatal("conflicts must have produced learnt clauses")
	}

	// Second refutation reuses the learnt clauses: act is root-implied
	// false by now (or nearly so), so the repeat costs far fewer
	// conflicts than the first call.
	ok, _, err = s.Solve(act)
	if err != nil || ok {
		t.Fatalf("repeat solve must stay unsat, got ok=%v err=%v", ok, err)
	}
	st2 := s.Stats()
	if st2.Solves != st1.Solves+1 {
		t.Fatalf("solve counter must advance by one, got %d -> %d", st1.Solves, st2.Solves)
	}
	delta := st2.Conflicts - st1.Conflicts
	if delta*2 >= st1.Conflicts {
		t.Fatalf("repeat solve must reuse learnt clauses: first call %d conflicts, repeat %d",
			st1.Conflicts, delta)
	}
	// The clause memory itself persisted (not rebuilt from zero).
	if st2.Learnt < st1.Learnt {
		t.Fatalf("learnt clauses dropped across calls: %d -> %d", st1.Learnt, st2.Learnt)
	}
	// The instance stays sat with the activation released.
	ok, _, err = s.Solve(act.Not())
	if err != nil || !ok {
		t.Fatalf("released instance must be sat, got ok=%v err=%v", ok, err)
	}
}

func TestClauseAdditionBetweenSolves(t *testing.T) {
	s := New()
	x := NewLit(s.NewVar(), false)
	y := NewLit(s.NewVar(), false)
	s.AddClause(x, y)
	ok, m, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("want sat, got ok=%v err=%v", ok, err)
	}
	if !m[x.Var()] && !m[y.Var()] {
		t.Fatal("model must satisfy x or y")
	}
	// Block the positive x; the solver must adapt on the next call.
	s.AddClause(x.Not())
	ok, m, err = s.Solve()
	if err != nil || !ok {
		t.Fatalf("still sat via y, got ok=%v err=%v", ok, err)
	}
	if m[x.Var()] || !m[y.Var()] {
		t.Fatalf("model must now set y and clear x, got x=%v y=%v", m[x.Var()], m[y.Var()])
	}
	s.AddClause(y.Not())
	ok, _, err = s.Solve()
	if err != nil || ok {
		t.Fatalf("fully blocked instance must be unsat, got ok=%v err=%v", ok, err)
	}
}

func TestBudgetIsPerCallDelta(t *testing.T) {
	s := New()
	act := NewLit(s.NewVar(), false)
	addPigeonhole(s, act, 7, 6)
	s.SetBudget(20)

	_, _, err := s.Solve(act)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget must exhaust on PHP(7,6), got err=%v", err)
	}
	c1 := s.Stats().Conflicts
	if c1 <= 20 {
		t.Fatalf("first call must have spent past its budget check, conflicts=%d", c1)
	}

	// A second budgeted call starts from a fresh allowance: it performs
	// real new search work instead of aborting on the lifetime total.
	_, _, err = s.Solve(act)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("second budgeted call must also exhaust, got err=%v", err)
	}
	c2 := s.Stats().Conflicts
	if c2-c1 < 10 {
		t.Fatalf("per-call budget must reset: second call spent only %d conflicts", c2-c1)
	}

	// An easy query on the same solver is unaffected by earlier spend.
	ok, _, err := s.Solve(act.Not())
	if err != nil || !ok {
		t.Fatalf("easy query must succeed within budget, got ok=%v err=%v", ok, err)
	}

	// Clearing the budget lets the refutation complete.
	s.SetBudget(0)
	ok, _, err = s.Solve(act)
	if err != nil || ok {
		t.Fatalf("unbudgeted solve must refute, got ok=%v err=%v", ok, err)
	}
}
