package mc

import (
	"testing"

	"fveval/internal/bitvec"
	"fveval/internal/logic"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
	"fveval/internal/sat"
	"fveval/internal/sva"
)

// Differential check of the incremental safety engine (persistent
// solvers, per-depth activation literals) against a one-shot oracle
// that re-encodes and re-solves every query from scratch — the
// pre-incremental solve path.

// assumeConstraint conjoins every assumption at every position whose
// bounded window fits inside the unrolling.
func assumeConstraint(le *ltl.LassoEval, assumes []ltl.Formula, frames int) (logic.Node, error) {
	acc := logic.True
	for _, f := range assumes {
		d := ltl.Depth(f)
		for p := 0; p+d < frames; p++ {
			n, err := le.Truth(f, p)
			if err != nil {
				return logic.False, err
			}
			acc = le.Ev.Ops.B.And(acc, n)
		}
	}
	return acc, nil
}

// oneShotSolve asserts n in a fresh solver over b and solves once.
func oneShotSolve(b *logic.Builder, n logic.Node, opt Options) (bool, *logic.CNF, []bool, error) {
	s := sat.New()
	if opt.Budget > 0 {
		s.SetBudget(opt.Budget)
	}
	cnf := logic.NewCNF(b, s)
	cnf.Assert(n)
	ok, model, err := s.SolveModel()
	return ok, cnf, model, err
}

func oracleSafetyQuery(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, attempts, d int, opt Options) (bool, error) {
	n := attempts + d + 1
	b := logic.NewBuilder()
	fe := newFrameEnv(b, sys)
	fe.initFrame0(false)
	if err := fe.unroll(n); err != nil {
		return false, err
	}
	le := ltl.NewLassoEval(fe.ev, n, n-1)
	total := logic.False
	for p := 0; p < attempts; p++ {
		v, err := violation(fe, le, f, abort, p, d, false)
		if err != nil {
			return false, err
		}
		total = b.Or(total, v)
	}
	asm, err := assumeConstraint(le, assumes, n)
	if err != nil {
		return false, err
	}
	ok, _, _, err := oneShotSolve(b, b.And(total, asm), opt)
	return ok, err
}

func oracleInductionStep(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, k, d int, opt Options) (bool, error) {
	n := k + d + 2
	b := logic.NewBuilder()
	fe := newFrameEnv(b, sys)
	fe.initFrame0(true)
	if err := fe.unroll(n); err != nil {
		return false, err
	}
	le := ltl.NewLassoEval(fe.ev, n, n-1)
	query, err := assumeConstraint(le, assumes, n)
	if err != nil {
		return false, err
	}
	for p := 0; p < k; p++ {
		v, err := violation(fe, le, f, abort, p, d, false)
		if err != nil {
			return false, err
		}
		query = b.And(query, v.Not())
	}
	v, err := violation(fe, le, f, abort, k, d, false)
	if err != nil {
		return false, err
	}
	okSat, _, _, err := oneShotSolve(b, b.And(query, v), opt)
	if err != nil {
		return false, err
	}
	return !okSat, nil
}

func oracleCheckSafety(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, opt Options) (Result, error) {
	d := ltl.Depth(f)
	for k := 1; k <= opt.MaxInduction; k++ {
		cex, err := oracleSafetyQuery(sys, f, abort, assumes, k, d, opt)
		if err != nil {
			return Result{}, err
		}
		if cex {
			return Result{Status: Falsified, Depth: k}, nil
		}
		ind, err := oracleInductionStep(sys, f, abort, assumes, k, d, opt)
		if err != nil {
			return Result{}, err
		}
		if ind {
			return Result{Status: Proven, Depth: k}, nil
		}
	}
	cex, err := oracleSafetyQuery(sys, f, abort, assumes, opt.BMCDepth, d, opt)
	if err != nil {
		return Result{}, err
	}
	if cex {
		return Result{Status: Falsified, Depth: opt.BMCDepth}, nil
	}
	return Result{Status: Unknown, Depth: opt.BMCDepth}, nil
}

// oracleLiveness is the one-shot lasso query: a fresh unroll of k
// frames from reset, every loop entry's closure, violation and
// assumptions in one disjunction, one solve. A falsified result
// carries only the loop entry of its counterexample.
func oracleLiveness(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, opt Options) (Result, error) {
	k := lassoBound
	if d := ltl.Depth(f) + 3; d > k {
		k = d
	}
	b := logic.NewBuilder()
	fe := newFrameEnv(b, sys)
	fe.initFrame0(false)
	if err := fe.unroll(k); err != nil {
		return Result{}, err
	}
	ops := bitvec.Ops{B: b}
	perLoop := make([]logic.Node, k)
	total := logic.False
	for l := 0; l < k; l++ {
		le := ltl.NewLassoEval(fe.ev, k, l)
		closure := logic.True
		for _, r := range sys.Regs {
			next, err := fe.ev.Eval(r.Next, k-1)
			if err != nil {
				return Result{}, err
			}
			at, err := fe.Signal(r.Name, l)
			if err != nil {
				return Result{}, err
			}
			closure = b.And(closure, ops.Eq(next.Extend(r.Width), at))
		}
		viol := logic.False
		for p := 0; p < k; p++ {
			v, err := violation(fe, le, f, abort, p, 0, true)
			if err != nil {
				return Result{}, err
			}
			viol = b.Or(viol, v)
		}
		for _, af := range assumes {
			for p := 0; p < k; p++ {
				an, err := le.Truth(af, p)
				if err != nil {
					return Result{}, err
				}
				closure = b.And(closure, an)
			}
		}
		perLoop[l] = b.And(closure, viol)
		total = b.Or(total, perLoop[l])
	}
	ok, cnf, model, err := oneShotSolve(b, total, opt)
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{Status: Proven, Bounded: true, Depth: k}, nil
	}
	sim := logic.NewSim(b)
	for _, in := range b.Inputs() {
		if cnf.InputValue(model, in) {
			sim.SetInput(in, ^uint64(0))
		}
	}
	sim.Run()
	loop := -1
	for l, n := range perLoop {
		if sim.Bit(n, 0) {
			loop = l
			break
		}
	}
	return Result{Status: Falsified, Depth: k, Cex: &Cex{Loop: loop}}, nil
}

// oneShotCover is the one-shot cover query: a fresh unroll from reset,
// the property at any position below the BMC depth under every
// assumption instance, one solve.
func oneShotCover(sys *rtl.System, a *sva.Assertion, opt Options) (Result, error) {
	opt = opt.withDefaults()
	f, err := ltl.LowerAssertion(a)
	if err != nil {
		return Result{}, err
	}
	assumes, err := lowerAssumes(sys)
	if err != nil {
		return Result{}, err
	}
	n := opt.BMCDepth + ltl.Depth(f) + 1
	b := logic.NewBuilder()
	fe := newFrameEnv(b, sys)
	fe.initFrame0(false)
	if err := fe.unroll(n); err != nil {
		return Result{}, err
	}
	le := ltl.NewLassoEval(fe.ev, n, n-1)
	hit := logic.False
	for p := 0; p < opt.BMCDepth; p++ {
		t, err := le.Truth(f, p)
		if err != nil {
			return Result{}, err
		}
		hit = b.Or(hit, t)
	}
	asm, err := assumeConstraint(le, assumes, n)
	if err != nil {
		return Result{}, err
	}
	ok, _, _, err := oneShotSolve(b, b.And(hit, asm), opt)
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{Status: Falsified, Bounded: true, Depth: opt.BMCDepth}, nil
	}
	return Result{Status: Proven, Depth: opt.BMCDepth}, nil
}

// oracleCheckAssertion mirrors CheckAssertion through the one-shot
// oracles.
func oracleCheckAssertion(sys *rtl.System, a *sva.Assertion, opt Options) (Result, error) {
	opt = opt.withDefaults()
	f, err := ltl.LowerAssertion(a)
	if err != nil {
		return Result{}, err
	}
	var abort sva.Expr
	if a.DisableIff != nil {
		abort = a.DisableIff
	}
	assumes, err := lowerAssumes(sys)
	if err != nil {
		return Result{}, err
	}
	if ltl.HasUnbounded(f) {
		return oracleLiveness(sys, f, abort, assumes, opt)
	}
	return oracleCheckSafety(sys, f, abort, assumes, opt)
}

func TestIncrementalSafetyMatchesOneShotOracle(t *testing.T) {
	sys := fsmSystem(t)
	cases := []string{
		// proven by induction
		`assert property (@(posedge clk) disable iff (!reset_)
			state == 2'b10 |-> (next_state == 2'b00 || next_state == 2'b01));`,
		`assert property (@(posedge clk) fsm_out == state);`,
		`assert property (@(posedge clk) disable iff (!reset_)
			state == 2'b00 |-> ##1 state == 2'b10);`,
		// falsified at various depths
		`assert property (@(posedge clk) disable iff (!reset_)
			state == 2'b10 |-> ##1 state == 2'b11);`,
		`assert property (@(posedge clk) disable iff (!reset_)
			state != 2'b11);`,
		`assert property (@(posedge clk) disable iff (!reset_)
			state == 2'b10 |-> in_A == in_B);`,
		// deeper falsification: S3 unreachable before three steps
		`assert property (@(posedge clk) disable iff (!reset_)
			##3 state != 2'b11);`,
	}
	for _, src := range cases {
		a, err := sva.ParseAssertion(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got, err1 := CheckAssertion(sys, a, Options{})
		want, err2 := oracleCheckAssertion(sys, a, Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error disagreement: incremental=%v oracle=%v", src, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if got.Status != want.Status || got.Depth != want.Depth {
			t.Fatalf("%s: incremental (%v, depth %d) vs oracle (%v, depth %d)",
				src, got.Status, got.Depth, want.Status, want.Depth)
		}
	}
}
