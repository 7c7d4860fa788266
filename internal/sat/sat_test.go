package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func lit(v int) Lit {
	if v < 0 {
		return NewLit(-v, true)
	}
	return NewLit(v, false)
}

func addVars(s *Solver, n int) {
	for i := 0; i < n; i++ {
		s.NewVar()
	}
}

func TestLitEncoding(t *testing.T) {
	l := NewLit(5, false)
	if l.Var() != 5 || l.Neg() {
		t.Fatalf("positive literal broken: %v", l)
	}
	n := l.Not()
	if n.Var() != 5 || !n.Neg() {
		t.Fatalf("negation broken: %v", n)
	}
	if n.Not() != l {
		t.Fatalf("double negation broken")
	}
	if l.String() != "5" || n.String() != "-5" {
		t.Fatalf("String broken: %q %q", l, n)
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s := New()
	ok, _, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("empty formula must be SAT, got %v %v", ok, err)
	}
}

func TestUnitPropagationConflict(t *testing.T) {
	s := New()
	addVars(s, 1)
	s.AddClause(lit(1))
	if res := s.AddClause(lit(-1)); res {
		t.Fatalf("x and !x must be unsatisfiable at add time")
	}
	ok, _, _ := s.Solve()
	if ok {
		t.Fatalf("expected UNSAT")
	}
}

func TestSimpleSat(t *testing.T) {
	s := New()
	addVars(s, 3)
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(3))
	s.AddClause(lit(-2), lit(-3))
	ok, m, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("expected SAT: %v %v", ok, err)
	}
	// verify model satisfies all clauses
	val := func(v int) bool { return m[v] }
	if !(val(1) || val(2)) || !(!val(1) || val(3)) || !(!val(2) || !val(3)) {
		t.Fatalf("model does not satisfy formula: %v", m)
	}
}

func TestPigeonhole3into2(t *testing.T) {
	// 3 pigeons, 2 holes: classic small UNSAT instance.
	s := New()
	// var p*2+h+1 for pigeon p in hole h
	addVars(s, 6)
	v := func(p, h int) Lit { return lit(p*2 + h + 1) }
	for p := 0; p < 3; p++ {
		s.AddClause(v(p, 0), v(p, 1))
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	ok, _, _ := s.Solve()
	if ok {
		t.Fatalf("pigeonhole 3->2 must be UNSAT")
	}
}

func TestPigeonhole6into5(t *testing.T) {
	s := New()
	const P, H = 6, 5
	addVars(s, P*H)
	v := func(p, h int) Lit { return lit(p*H + h + 1) }
	for p := 0; p < P; p++ {
		var cl []Lit
		for h := 0; h < H; h++ {
			cl = append(cl, v(p, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	ok, _, _ := s.Solve()
	if ok {
		t.Fatalf("pigeonhole 6->5 must be UNSAT")
	}
	if s.Stats().Conflicts == 0 {
		t.Fatalf("expected a nontrivial search")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	addVars(s, 2)
	s.AddClause(lit(1), lit(2))
	ok, _, _ := s.Solve(lit(-1), lit(-2))
	if ok {
		t.Fatalf("assumptions force both false; expected UNSAT")
	}
	ok, _, _ = s.Solve(lit(-1))
	if !ok {
		t.Fatalf("expected SAT under single assumption")
	}
	// solver must remain reusable
	ok, _, _ = s.Solve()
	if !ok {
		t.Fatalf("expected SAT with no assumptions")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	addVars(s, 2)
	if !s.AddClause(lit(1), lit(-1)) {
		t.Fatalf("tautological clause must be accepted (and dropped)")
	}
	if !s.AddClause(lit(2), lit(2)) {
		t.Fatalf("duplicate literals must be deduped")
	}
	ok, m, _ := s.Solve()
	if !ok || !m[2] {
		t.Fatalf("x2 must be forced true")
	}
}

// brute-force satisfiability for cross-checking
func bruteForce(nVars int, clauses [][]int) bool {
	for mask := 0; mask < 1<<uint(nVars); mask++ {
		sat := true
		for _, c := range clauses {
			cSat := false
			for _, l := range c {
				v := l
				if v < 0 {
					v = -v
				}
				val := mask&(1<<uint(v-1)) != 0
				if l < 0 {
					val = !val
				}
				if val {
					cSat = true
					break
				}
			}
			if !cSat {
				sat = false
				break
			}
		}
		if sat {
			return true
		}
	}
	return false
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(8)
		nClauses := 1 + rng.Intn(30)
		var clauses [][]int
		s := New()
		addVars(s, nVars)
		root := true
		for i := 0; i < nClauses; i++ {
			width := 1 + rng.Intn(3)
			var c []int
			var cl []Lit
			for j := 0; j < width; j++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c = append(c, v)
				cl = append(cl, lit(v))
			}
			clauses = append(clauses, c)
			if !s.AddClause(cl...) {
				root = false
			}
		}
		want := bruteForce(nVars, clauses)
		var got bool
		if !root {
			got = false
		} else {
			var err error
			got, _, err = s.Solve()
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		}
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v (vars=%d clauses=%v)",
				iter, got, want, nVars, clauses)
		}
		if got {
			// model must actually satisfy every clause
			ok, m, _ := s.Solve()
			if !ok {
				t.Fatalf("iter %d: SAT became UNSAT on re-solve", iter)
			}
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					val := m[v]
					if l < 0 {
						val = !val
					}
					if val {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: returned model violates clause %v", iter, c)
				}
			}
		}
	}
}

func TestQuickModelsSatisfy(t *testing.T) {
	// Property: whenever the solver reports SAT on a random 3-CNF, the
	// returned model satisfies the formula.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 4 + rng.Intn(10)
		s := New()
		addVars(s, nVars)
		var clauses [][]Lit
		ok := true
		for i := 0; i < 4*nVars; i++ {
			var cl []Lit
			for j := 0; j < 3; j++ {
				v := 1 + rng.Intn(nVars)
				neg := rng.Intn(2) == 0
				cl = append(cl, NewLit(v, neg))
			}
			clauses = append(clauses, cl)
			if !s.AddClause(cl...) {
				ok = false
			}
		}
		if !ok {
			return true // UNSAT at root: nothing to check
		}
		sat, m, err := s.Solve()
		if err != nil {
			return false
		}
		if !sat {
			return true
		}
		for _, cl := range clauses {
			cSat := false
			for _, l := range cl {
				val := m[l.Var()]
				if l.Neg() {
					val = !val
				}
				if val {
					cSat = true
					break
				}
			}
			if !cSat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d)=%d want %d", i+1, got, w)
		}
	}
}

func TestBudget(t *testing.T) {
	// A hard pigeonhole instance with a tiny budget should hit ErrBudget
	// at its first conflict past the budget, well before the first
	// 100-conflict restart window would end.
	s := New()
	const P, H = 9, 8
	addVars(s, P*H)
	v := func(p, h int) Lit { return lit(p*H + h + 1) }
	for p := 0; p < P; p++ {
		var cl []Lit
		for h := 0; h < H; h++ {
			cl = append(cl, v(p, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	s.SetBudget(10)
	_, _, err := s.Solve()
	if err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if c := s.Stats().Conflicts; c <= 10 || c >= 100 {
		t.Fatalf("budget 10 spent %d conflicts, want just past 10", c)
	}
}

func BenchmarkSolverPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		const P, H = 7, 6
		addVars(s, P*H)
		v := func(p, h int) Lit { return lit(p*H + h + 1) }
		for p := 0; p < P; p++ {
			var cl []Lit
			for h := 0; h < H; h++ {
				cl = append(cl, v(p, h))
			}
			s.AddClause(cl...)
		}
		for h := 0; h < H; h++ {
			for p1 := 0; p1 < P; p1++ {
				for p2 := p1 + 1; p2 < P; p2++ {
					s.AddClause(v(p1, h).Not(), v(p2, h).Not())
				}
			}
		}
		if ok, _, _ := s.Solve(); ok {
			b.Fatalf("pigeonhole must be UNSAT")
		}
	}
}
