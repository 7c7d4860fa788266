package sat

import (
	"math/rand"
	"testing"
)

// FuzzIncremental drives one solver through a byte-coded program of
// interleaved permanent clauses, clauses gated behind activation
// literals, retirements of those literals, and Solve calls under
// assumptions — the call pattern of the model checker's shared
// sessions. Every answer is checked by brute force over all variables,
// and every model against every clause and assumption.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 5, 4, 9, 2, 7, 1, 4, 3, 4})
	f.Add([]byte{6, 4, 0, 0, 1, 1, 2, 2, 8, 3, 4, 0, 4, 3, 4})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 64; i++ {
		prog := make([]byte, 32+rng.Intn(128))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		r := &progReader{b: prog}
		nProblem := 2 + int(r.next()%7)
		s := New()
		for i := 0; i < nProblem; i++ {
			s.NewVar()
		}
		var (
			clauses [][]Lit
			acts    []Lit
			retired []bool
		)
		add := func(lits ...Lit) {
			clauses = append(clauses, lits)
			s.AddClause(lits...)
		}
		problemLit := func() Lit {
			b := r.next()
			return NewLit(1+int(b>>1)%nProblem, b&1 == 1)
		}
		randClause := func() []Lit {
			lits := make([]Lit, 1+int(r.next()%3))
			for i := range lits {
				lits[i] = problemLit()
			}
			return lits
		}
		liveAct := func() (int, bool) {
			if len(acts) == 0 {
				return 0, false
			}
			i := int(r.next()) % len(acts)
			return i, !retired[i]
		}
		for solves := 0; !r.done() && solves < 12; {
			switch r.next() % 5 {
			case 0:
				add(randClause()...)
			case 1:
				if len(acts) < 4 {
					acts = append(acts, NewLit(s.NewVar(), false))
					retired = append(retired, false)
				}
			case 2:
				if i, ok := liveAct(); ok {
					add(append([]Lit{acts[i].Not()}, randClause()...)...)
				}
			case 3:
				if i, ok := liveAct(); ok {
					add(acts[i].Not())
					retired[i] = true
				}
			case 4:
				solves++
				var assume []Lit
				for i, a := range acts {
					if !retired[i] && r.next()&1 == 1 {
						assume = append(assume, a)
					}
				}
				if r.next()&1 == 1 {
					assume = append(assume, problemLit())
				}
				checkIncrementalSolve(t, s, clauses, assume)
			}
		}
	})
}

type progReader struct {
	b []byte
	i int
}

func (r *progReader) done() bool { return r.i >= len(r.b) }

// next returns the next program byte, or 0 once the program is spent.
func (r *progReader) next() byte {
	if r.done() {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// checkIncrementalSolve solves under assume and checks the answer
// against brute force over every variable the solver holds.
func checkIncrementalSolve(t *testing.T, s *Solver, clauses [][]Lit, assume []Lit) {
	t.Helper()
	ok, model, err := s.Solve(assume...)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	want := bruteForceLits(s.Stats().Vars, clauses, assume)
	if ok != want {
		t.Fatalf("solver says sat=%v, brute force %v (assumptions %v, clauses %v)", ok, want, assume, clauses)
	}
	if ok {
		holds := func(l Lit) bool { return model[l.Var()] != l.Neg() }
		for _, l := range assume {
			if !holds(l) {
				t.Fatalf("model violates assumption %v", l)
			}
		}
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				sat = sat || holds(l)
			}
			if !sat {
				t.Fatalf("model violates clause %v", c)
			}
		}
	}
}

// bruteForceLits reports whether some assignment of variables 1..n
// satisfies every clause and every unit in assume.
func bruteForceLits(n int, clauses [][]Lit, assume []Lit) bool {
	holds := func(m uint32, l Lit) bool { return (m>>uint(l.Var()-1)&1 == 1) != l.Neg() }
	for m := uint32(0); m < 1<<uint(n); m++ {
		ok := true
		for _, l := range assume {
			if !holds(m, l) {
				ok = false
				break
			}
		}
		for _, c := range clauses {
			if !ok {
				break
			}
			sat := false
			for _, l := range c {
				if holds(m, l) {
					sat = true
					break
				}
			}
			ok = sat
		}
		if ok {
			return true
		}
	}
	return false
}
