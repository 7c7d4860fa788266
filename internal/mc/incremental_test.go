package mc

import (
	"slices"
	"strings"
	"testing"

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
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
	ok, model, err := s.Solve()
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
			return Result{Verdict: formal.Verdict{Class: formal.Falsified, Depth: k}}, nil
		}
		ind, err := oracleInductionStep(sys, f, abort, assumes, k, d, opt)
		if err != nil {
			return Result{}, err
		}
		if ind {
			return Result{Verdict: formal.Verdict{Class: formal.Proven, Depth: k}}, nil
		}
	}
	cex, err := oracleSafetyQuery(sys, f, abort, assumes, opt.BMCDepth, d, opt)
	if err != nil {
		return Result{}, err
	}
	if cex {
		return Result{Verdict: formal.Verdict{Class: formal.Falsified, Depth: opt.BMCDepth}}, nil
	}
	return Result{Verdict: formal.Verdict{Class: formal.Undecided, Reason: formal.Bound, Depth: opt.BMCDepth}}, nil
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
		return Result{Verdict: formal.Verdict{Class: formal.Proven, Reason: formal.Bound, Depth: k}}, nil
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
	return Result{Verdict: formal.Verdict{Class: formal.Falsified, Depth: k}, Cex: &Cex{Loop: loop}}, nil
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
		return Result{Verdict: formal.Verdict{Class: formal.Falsified, Reason: formal.Bound, Depth: opt.BMCDepth}}, nil
	}
	return Result{Verdict: formal.Verdict{Class: formal.Proven, Depth: opt.BMCDepth}}, nil
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
		got, err1 := NewDesign().CheckAssertion(sys, a, Options{})
		want, err2 := oracleCheckAssertion(sys, a, Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error disagreement: incremental=%v oracle=%v", src, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if got.Class != want.Class || got.Depth != want.Depth {
			t.Fatalf("%s: incremental (%v, depth %d) vs oracle (%v, depth %d)",
				src, got.Class, got.Depth, want.Class, want.Depth)
		}
	}
}

// Schedule differential: the cost-balanced safety ramp (safety) must
// give every check the verdict of the lockstep schedule it replaced,
// kept here as the reference.

// lockstepSafety is the lockstep safety schedule: base depth k, then
// induction step k, for k = 1..MaxInduction, then the deep ramp.
func lockstepSafety(base, step *obligation, opt Options) (Result, bool, error) {
	for k := 1; k <= opt.MaxInduction; k++ {
		cex, err := base.checkDepth(k)
		if err != nil {
			return Result{}, false, err
		}
		if cex != nil {
			return Result{Verdict: formal.Verdict{Class: formal.Falsified, Depth: k}, Cex: cex}, true, nil
		}
		ind, err := step.induct(k)
		if err != nil {
			return Result{}, false, err
		}
		if ind {
			return Result{Verdict: formal.Verdict{Class: formal.Proven, Depth: k}}, true, nil
		}
	}
	if opt.MaxInduction < opt.BMCDepth {
		if _, err := base.grow(opt.BMCDepth + base.d + 1); err != nil {
			return Result{}, false, err
		}
	}
	for k := opt.MaxInduction + 1; k <= opt.BMCDepth; k++ {
		cex, err := base.checkDepth(k)
		if err != nil {
			return Result{}, false, err
		}
		if cex != nil {
			return Result{Verdict: formal.Verdict{Class: formal.Falsified, Depth: opt.BMCDepth}, Cex: cex}, k < opt.BMCDepth, nil
		}
	}
	return Result{Verdict: formal.Verdict{Class: formal.Undecided, Reason: formal.Bound, Depth: opt.BMCDepth}}, false, nil
}

// rowSystems elaborates a row's design and bench with each snippet
// spliced in before the bench's endmodule: on an overlay of the row's
// base where the snippet allows one, as the judges run them, else the
// whole file. Snippets that do not elaborate are skipped.
type rowSystems struct {
	design, bench, dutTop, benchTop string
	base                            *rtl.Base
}

func newRowSystems(design, bench, dutTop, benchTop string) *rowSystems {
	r := &rowSystems{design: design, bench: bench, dutTop: dutTop, benchTop: benchTop}
	if f, err := rtl.Parse(design + "\n" + bench); err == nil {
		r.base, _ = rtl.ElaborateBase(f, dutTop, benchTop)
	}
	return r
}

func (r *rowSystems) system(snippet string) (*rtl.System, error) {
	if r.base != nil {
		if sys, err := r.base.Overlay(snippet); err != rtl.ErrNoOverlay {
			return sys, err
		}
	}
	i := strings.LastIndex(r.bench, "endmodule")
	f, err := rtl.Parse(r.design + "\n" + r.bench[:i] + "\n" + snippet + "\n" + r.bench[i:])
	if err != nil {
		return nil, err
	}
	return rtl.ElaborateBound(f, r.dutTop, r.benchTop, nil)
}

// distinctResponses returns a row's distinct extracted responses,
// model by model and sample by sample, as the engine judges them.
func distinctResponses(models []llm.Model, p *llm.Prompt) []string {
	var out []string
	for _, m := range models {
		for s := 0; s < 5; s++ {
			if code := llm.ExtractCode(m.Generate(p, s)); !slices.Contains(out, code) {
				out = append(out, code)
			}
		}
	}
	return out
}

// helperSet parses the assertions of an AGR response, one per
// semicolon-terminated statement that names assert.
func helperSet(code string) []*sva.Assertion {
	var out []*sva.Assertion
	for _, stmt := range strings.SplitAfter(code, ";") {
		if !strings.Contains(stmt, "assert") {
			continue
		}
		if a, err := sva.ParseAssertion(strings.TrimSpace(stmt)); err == nil && sva.Validate(a) == nil {
			out = append(out, a)
		}
	}
	return out
}

// schedulePair is two design contexts judging the same checks in the
// same order, one per schedule, each with the engine's prefilter and
// a bank of its own.
type schedulePair struct {
	got, want       *Design
	gotOpt, wantOpt Options
}

func newSchedulePair() *schedulePair {
	opt := func() Options { return Options{Search: formal.Search{SimPatterns: 128, Bank: formal.NewBank(0)}} }
	return &schedulePair{got: NewDesign(), want: &Design{schedule: lockstepSafety}, gotOpt: opt(), wantOpt: opt()}
}

func TestScheduleMatchesLockstep(t *testing.T) {
	checks, statuses := 0, map[formal.Class]int{}
	for _, kind := range []string{"pipeline", "fsm"} {
		for _, inst := range rtlgen.Sweep96(kind) {
			rows, pair := newRowSystems(inst.Design, inst.Bench, inst.DUTTop, inst.BenchTop), newSchedulePair()
			for _, code := range distinctResponses(llm.DesignModels(), llm.BuildDesignPrompt(inst)) {
				sys, err := rows.system(code)
				if err != nil {
					continue
				}
				for _, a := range sys.Asserts {
					got, gotErr := pair.got.CheckAssertion(sys, a, pair.gotOpt)
					want, wantErr := pair.want.CheckAssertion(sys, a, pair.wantOpt)
					checks++
					statuses[want.Class]++
					if (gotErr == nil) != (wantErr == nil) || got.Verdict != want.Verdict {
						t.Fatalf("%s %s: balanced (%v, depth %d, reason %v, error %v), lockstep (%v, depth %d, reason %v, error %v)",
							inst.ID, a, got.Class, got.Depth, got.Reason, gotErr, want.Class, want.Depth, want.Reason, wantErr)
					}
				}
			}
		}
	}
	sets := 0
	for _, inst := range helpergen.Sweep() {
		rows, pair := newRowSystems(inst.Design, inst.Bench, inst.DUTTop, inst.BenchTop), newSchedulePair()
		sys, err := rows.system(inst.Target)
		if err != nil {
			t.Fatalf("%s: %v", inst.ID, err)
		}
		for _, code := range distinctResponses(llm.Models(), llm.BuildHelperPrompt(inst)) {
			helpers := helperSet(code)
			if len(helpers) == 0 {
				continue
			}
			got, gotLemmas, gotErr := pair.got.CheckWithLemmas(sys, inst.TargetAst, helpers, pair.gotOpt)
			want, wantLemmas, wantErr := pair.want.CheckWithLemmas(sys, inst.TargetAst, helpers, pair.wantOpt)
			sets++
			if (gotErr == nil) != (wantErr == nil) || got.Verdict != want.Verdict || !slices.Equal(gotLemmas, wantLemmas) {
				t.Fatalf("%s %q: balanced (%v, depth %d, lemmas %+v, error %v), lockstep (%v, depth %d, lemmas %+v, error %v)",
					inst.ID, code, got.Class, got.Depth, gotLemmas, gotErr, want.Class, want.Depth, wantLemmas, wantErr)
			}
		}
	}
	if statuses[formal.Proven] == 0 || statuses[formal.Falsified] == 0 || sets == 0 {
		t.Fatalf("differential too narrow: statuses %v, %d helper sets", statuses, sets)
	}
	t.Logf("%d assertion checks (%v) and %d helper sets matched", checks, statuses, sets)
}

// chainSrc shifts a stuck-at-zero register c into b and then a, so
// "!b" is 2-inductive and "!a" 3-inductive, while from reset each
// depth's query folds to constant false and costs the solver nothing.
const chainSrc = `
module chain(clk, reset_, a, b, c);
input clk;
input reset_;
output reg a;
output reg b;
output reg c;
always @(posedge clk) begin
  if (!reset_) begin a <= 1'b0; b <= 1'b0; c <= 1'b0; end
  else begin a <= b; b <= c; c <= c; end
end
endmodule`

// TestHeldBaseErrors plants an error in the base session that a base
// query meets only at depth 3: after frame 1 is built, the next-state
// logic of the property's register names an undeclared signal. The
// base runs ahead to depth 3 while the step pays for its first
// refutation. For "!b" the step proves at k = 2, before the lockstep
// schedule would reach base depth 3, so the held error must not
// surface; for "!a" the lockstep schedule reaches base depth 3 before
// the proof at k = 3, so both schedules must return the error.
func TestHeldBaseErrors(t *testing.T) {
	f, err := rtl.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rtl.Elaborate(f, "chain", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		reg     string
		proven  bool
		wantErr string
	}{
		{"b", true, ""},
		{"a", false, "undeclared identifier"},
	} {
		broken := *sys
		broken.Regs = slices.Clone(sys.Regs)
		r, _ := broken.RegByName(tc.reg)
		r.Next = &sva.Ident{Name: "ghost"}
		a := parseA(t, "assert property (@(posedge clk) !"+tc.reg+");")
		for _, sched := range []struct {
			name string
			run  func(base, step *obligation, opt Options) (Result, bool, error)
		}{{"balanced", safety}, {"lockstep", lockstepSafety}} {
			ahead := false
			d := &Design{schedule: func(base, step *obligation, opt Options) (Result, bool, error) {
				if err := base.ss.fe.unroll(2); err != nil {
					return Result{}, false, err
				}
				base.ss.fe.sys = &broken
				res, early, err := sched.run(base, step, opt)
				ahead = base.bound > 3 // grown for base depth 3
				return res, early, err
			}}
			res, err := d.CheckAssertion(sys, a, Options{})
			if sched.name == "balanced" && !ahead {
				t.Fatalf("!%s: the base never ran ahead to depth 3", tc.reg)
			}
			if tc.proven && (err != nil || res.Class != formal.Proven || res.Depth != 2) {
				t.Errorf("!%s, %s: (%v, depth %d, error %v), want proven at 2", tc.reg, sched.name, res.Class, res.Depth, err)
			}
			if !tc.proven && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Errorf("!%s, %s: (%v, depth %d, error %v), want %q", tc.reg, sched.name, res.Class, res.Depth, err, tc.wantErr)
			}
		}
	}
}
