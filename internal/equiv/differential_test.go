package equiv

import (
	"testing"

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/logic"
	"fveval/internal/ltl"
	"fveval/internal/sat"
	"fveval/internal/sva"
)

// Differential fuzzing of the incremental bound-ramping checker against
// a one-shot fixed-bound oracle: the oracle re-implements the
// pre-incremental solve path (fresh builder, fresh solver, single query
// at the final bound), so any divergence in verdicts between the two
// is a bug in the ramp, the activation gating, or the shared-solver
// reuse.

// oneShotFindWitness is the fixed-bound oracle: one builder, one
// solver, one query at bound k. It reports whether a trace satisfying
// f and violating g exists.
func oneShotFindWitness(f, g ltl.Formula, sigs *Sigs, k int, usesPast, unbounded bool, opt Options) (bool, error) {
	b := logic.NewBuilder()
	env := ltl.NewTraceEnv(b, sigs.Widths, sigs.Consts)
	q := &query{env: env, ev: &ltl.ExprEval{Ops: bitvec.Ops{B: b}, Env: env}}
	names := unionNames(f, g)

	total := logic.False
	for _, l := range loopsFor(k, usesPast, unbounded) {
		le := ltl.NewLassoEval(q.ev, k, l)
		tf, err := le.Truth(f, 0)
		if err != nil {
			return false, err
		}
		tg, err := le.Truth(g, 0)
		if err != nil {
			return false, err
		}
		viol := b.And(tf, tg.Not())
		if usesPast && l >= 1 {
			viol = b.And(viol, q.seamConstraint(names, l, k))
		}
		total = b.Or(total, viol)
	}

	s := sat.New()
	if opt.Budget > 0 {
		s.SetBudget(opt.Budget)
	}
	cnf := logic.NewCNF(b, s)
	cnf.Assert(total)
	ok, _, err := s.Solve()
	return ok, err
}

// oneShotCheck mirrors Check but runs the oracle solve path for the
// implication directions.
func oneShotCheck(a, b *sva.Assertion, sigs *Sigs, opt Options) (Result, error) {
	if a.ClockEdge != b.ClockEdge {
		return Result{Verdict: Inequivalent}, nil
	}
	fa, err := ltl.LowerAssertion(a)
	if err != nil {
		return Result{}, err
	}
	fb, err := ltl.LowerAssertion(b)
	if err != nil {
		return Result{}, err
	}
	condRel, err := newQuery(sigs, opt).disableRelation(a.DisableIff, b.DisableIff)
	if err != nil {
		return Result{}, err
	}

	depth := ltl.Depth(fa)
	if d := ltl.Depth(fb); d > depth {
		depth = d
	}
	k := depth + 4
	if k < 8 {
		k = 8
	}
	maxB := opt.MaxBound
	if maxB == 0 {
		maxB = 16
	}
	if k > maxB {
		k = maxB
	}
	if k <= depth {
		k = depth + 1
	}
	usesPast := ltl.UsesPast(fa) || ltl.UsesPast(fb)
	unbounded := ltl.HasUnbounded(fa) || ltl.HasUnbounded(fb)

	ab, err := oneShotFindWitness(fa, fb, sigs, k, usesPast, unbounded, opt)
	if err != nil {
		return Result{}, err
	}
	ba, err := oneShotFindWitness(fb, fa, sigs, k, usesPast, unbounded, opt)
	if err != nil {
		return Result{}, err
	}
	res := Result{Bound: k}
	switch {
	case !ab && !ba:
		res.Verdict = Equivalent
	case !ab:
		res.Verdict = AImpliesB
	case !ba:
		res.Verdict = BImpliesA
	default:
		res.Verdict = Inequivalent
	}
	res.Verdict = combineDisable(res.Verdict, condRel)
	return res, nil
}

// TestDifferentialRampVsOneShot checks verdict agreement between the
// incremental ramp and the one-shot oracle on random machine-benchmark
// assertion pairs, plus mutated variants that skew the verdict mix
// toward every class (self pairs for Equivalent, strengthened bodies
// for implications, negations for Inequivalent).
func TestDifferentialRampVsOneShot(t *testing.T) {
	sigs := DefaultMachineSigs()
	seen := map[Verdict]int{}
	compare := func(a, b *sva.Assertion, tag string) {
		t.Helper()
		got, err1 := Check(a, b, sigs, Options{})
		want, err2 := oneShotCheck(a, b, sigs, Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error disagreement: ramp=%v oracle=%v\nA: %s\nB: %s",
				tag, err1, err2, a, b)
		}
		if err1 != nil {
			return
		}
		if got.Verdict != want.Verdict {
			t.Fatalf("%s: verdict disagreement: ramp=%v oracle=%v\nA: %s\nB: %s",
				tag, got.Verdict, want.Verdict, a, b)
		}
		seen[got.Verdict]++
	}

	for seed := int64(1); seed <= 35; seed++ {
		a := machineAssertion(seed)
		b := machineAssertion(seed + 2000)
		compare(a, b, "random-pair")
		compare(a, a, "self-pair")

		neg := a.Clone()
		neg.Body = &sva.PropNot{P: sva.CloneProp(a.Body)}
		compare(neg, a, "negated")

		if body, ok := a.Body.(*sva.PropSeq); ok {
			if se, ok := body.S.(*sva.SeqExpr); ok {
				stronger := a.Clone()
				stronger.Body = &sva.PropSeq{S: &sva.SeqExpr{E: &sva.Binary{
					Op: "&&", X: sva.CloneExpr(se.E), Y: &sva.Ident{Name: "sig_E"},
				}}}
				compare(stronger, a, "strengthened")
			}
		}
	}

	// The fuzz corpus must actually exercise multiple verdict classes,
	// or agreement is vacuous.
	if len(seen) < 3 {
		t.Fatalf("fuzz corpus too narrow: verdict classes seen = %v", seen)
	}
}

// TestDifferentialPrefilterVsSolver fuzzes the bit-parallel simulation
// prefilter against the pure-SAT path: identical verdicts on random
// machine-benchmark pairs and their mutated variants, with a shared
// pattern bank recycling counterexamples across the corpus exactly as
// an engine run would. The prefilter is refute-only, so any verdict
// divergence is a soundness bug in the simulator, the witness decode,
// or the bank replay.
func TestDifferentialPrefilterVsSolver(t *testing.T) {
	sigs := DefaultMachineSigs()
	bank := formal.NewBank(0)
	seen := map[Verdict]int{}
	refuted := 0
	var st formal.Stats
	compare := func(a, b *sva.Assertion, tag string) {
		t.Helper()
		pre := st.Snapshot().Sim.Refutations
		got, err1 := Check(a, b, sigs, Options{Search: formal.Search{SimPatterns: 128, Bank: bank, Stats: &st}})
		want, err2 := Check(a, b, sigs, Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error disagreement: prefilter=%v solver=%v\nA: %s\nB: %s",
				tag, err1, err2, a, b)
		}
		if err1 != nil {
			return
		}
		if got.Verdict != want.Verdict {
			t.Fatalf("%s: verdict disagreement: prefilter=%v solver=%v\nA: %s\nB: %s",
				tag, got.Verdict, want.Verdict, a, b)
		}
		if got.Bound != want.Bound {
			t.Fatalf("%s: bound disagreement: prefilter=%d solver=%d\nA: %s\nB: %s",
				tag, got.Bound, want.Bound, a, b)
		}
		// A prefilter witness must itself satisfy the violation it
		// claims: decode already evaluated it, but re-check shape.
		if got.Verdict != Equivalent {
			for _, tr := range []*Trace{got.AB, got.BA} {
				if tr != nil && (tr.Len <= 0 || tr.Loop < 0 || tr.Loop >= tr.Len) {
					t.Fatalf("%s: malformed witness trace %+v", tag, tr)
				}
			}
		}
		if st.Snapshot().Sim.Refutations > pre {
			refuted++
		}
		seen[got.Verdict]++
	}

	for seed := int64(1); seed <= 30; seed++ {
		a := machineAssertion(seed)
		b := machineAssertion(seed + 3000)
		compare(a, b, "random-pair")
		compare(a, a, "self-pair")

		neg := a.Clone()
		neg.Body = &sva.PropNot{P: sva.CloneProp(a.Body)}
		compare(neg, a, "negated")
	}
	if len(seen) < 3 {
		t.Fatalf("fuzz corpus too narrow: verdict classes seen = %v", seen)
	}
	if refuted == 0 {
		t.Fatal("prefilter never refuted anything; the differential test is vacuous")
	}
	if bank.Len() == 0 {
		t.Fatal("no SAT witnesses were folded into the pattern bank")
	}
}

// TestDifferentialRampEarlyExitStats sanity-checks that the ramp really
// does decide inequivalent pairs below the final bound (the speed claim
// the refactor rests on) while still agreeing with the oracle.
func TestDifferentialRampEarlyExitStats(t *testing.T) {
	sigs := DefaultMachineSigs()
	early, total := 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		a := machineAssertion(seed)
		b := machineAssertion(seed + 4000)
		res, err := Check(a, b, sigs, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Verdict != Inequivalent {
			continue
		}
		total++
		// The one-shot checker never solved below bound 8; a shorter
		// witness means the probe bound decided the direction.
		if res.AB != nil && res.AB.Len < 8 {
			early++
		}
	}
	if total == 0 {
		t.Skip("no inequivalent pairs in corpus")
	}
	if early == 0 {
		t.Fatalf("ramp never exited early on %d inequivalent pairs", total)
	}
}
