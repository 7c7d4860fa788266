// Package mc model-checks SVA assertions against elaborated RTL — the
// role of the commercial tool's proof engines in the paper's
// Design2SVA evaluation. Safety properties are falsified with bounded
// model checking and proven with k-induction; liveness properties are
// falsified with lasso-shaped bounded search (absence of a lasso
// counterexample within the bound is reported as a bounded proof).
//
// Safety checking is incremental (DESIGN.md §7): one persistent
// solver serves the BMC base cases (frame-by-frame unroll, the
// frontier violation passed as an assumption, early exit on the first
// counterexample) and a second persistent solver serves the
// k-induction steps. A Design keeps that solver pair alive across
// every check of one design's transition relation, each check's own
// constraints gated behind its activation literal, so the unroll,
// learnt clauses and the Tseitin encoding are paid for once per design
// rather than once per assertion.
//
// Reset handling follows the formal-testbench convention of the
// benchmark: registers start from their post-reset values, reset
// inputs are free afterwards, and "disable iff" aborts discharge an
// attempt whenever the abort fires inside the attempt's window. With a
// free abort signal this approximation is exact for both falsification
// and proof (see DESIGN.md §4).
package mc

import (
	"fmt"
	"time"

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/logic"
	"fveval/internal/ltl"
	"fveval/internal/obs"
	"fveval/internal/rtl"
	"fveval/internal/sat"
	"fveval/internal/sva"
)

// Status classifies a check result.
type Status int

// Status values.
const (
	Unknown Status = iota
	Proven
	Falsified
)

func (s Status) String() string {
	switch s {
	case Proven:
		return "proven"
	case Falsified:
		return "falsified"
	}
	return "unknown"
}

// Cex is a counterexample: per-frame values of inputs and registers.
type Cex struct {
	Frames []map[string]uint64
	Loop   int // -1 for finite (safety) traces
}

// Result of checking one assertion.
type Result struct {
	Status Status
	// Bounded marks liveness verdicts established only up to the
	// search bound (no unbounded liveness proof engine).
	Bounded bool
	// Depth is the BMC depth or induction length used.
	Depth int
	Cex   *Cex
}

// Options tunes the checker.
type Options struct {
	MaxInduction int   // max k for k-induction (default 10)
	BMCDepth     int   // plain BMC falsification depth (default 16)
	LassoBound   int   // lasso length for liveness (default 10)
	Budget       int64 // SAT conflict budget per query (0 = unlimited)
	// SimPatterns enables the bit-parallel simulation prefilter for
	// safety checks (DESIGN.md §10): this many random patterns (in
	// 64-lane rounds, plus recycled Bank patterns) are simulated over
	// the concrete unrolled frames before each BMC or induction solve,
	// and a lane satisfying the violation discharges the depth — as a
	// falsification witness for BMC, as a step refutation for
	// induction — without touching the solver. 0 disables. Refute-only,
	// so verdicts are identical either way.
	SimPatterns int
	// Bank, when non-nil, supplies recycled counterexample patterns to
	// the prefilter and receives every SAT model found here.
	Bank *formal.Bank
	// Stats, when non-nil, receives solver-reuse counters from the
	// incremental sessions. Never affects verdicts.
	Stats *formal.Stats
	// Span, when non-nil, is the traced parent span of this check:
	// every BMC depth, induction step, and prefilter decision records a
	// child span under it. Like Stats it never affects verdicts; a nil
	// Span makes every span call a no-op.
	Span *obs.Span
}

func (o Options) withDefaults() Options {
	if o.MaxInduction == 0 {
		o.MaxInduction = 10
	}
	if o.BMCDepth == 0 {
		o.BMCDepth = 16
	}
	if o.LassoBound == 0 {
		o.LassoBound = 10
	}
	return o
}

// CheckAssertion proves or falsifies an assertion against the system.
// Assumptions declared in the system (assume property) constrain the
// explored traces. It is the one-check form of Design.CheckAssertion:
// safety properties are checked in a fresh session pair.
func CheckAssertion(sys *rtl.System, a *sva.Assertion, opt Options) (Result, error) {
	return NewDesign().CheckAssertion(sys, a, opt)
}

// CheckCover decides reachability for a cover property: whether some
// trace from reset (satisfying the system's assumptions) reaches a
// position where the property holds. Covered results carry the witness
// trace.
func CheckCover(sys *rtl.System, a *sva.Assertion, opt Options) (Result, error) {
	opt = opt.withDefaults()
	f, err := ltl.LowerAssertion(a)
	if err != nil {
		return Result{}, err
	}
	if ltl.HasUnbounded(f) {
		return Result{}, &ltl.LowerError{Reason: "unbounded cover properties are not supported"}
	}
	assumes, err := lowerAssumes(sys)
	if err != nil {
		return Result{}, err
	}
	d := ltl.Depth(f)
	n := opt.BMCDepth + d + 1
	started := time.Now()
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
	s := sat.New()
	if opt.Budget > 0 {
		s.SetBudget(opt.Budget)
	}
	cnf := logic.NewCNF(b, s)
	cnf.Assert(b.And(hit, asm))
	ok, model, err := s.SolveModel()
	opt.Stats.Query(1, s.Stats().Conflicts, 0, false)
	opt.Stats.SolveWall(time.Since(started).Nanoseconds())
	if err != nil {
		return Result{}, err
	}
	if !ok {
		// not reachable within the bound
		return Result{Status: Falsified, Bounded: true, Depth: opt.BMCDepth}, nil
	}
	return Result{Status: Proven, Depth: opt.BMCDepth,
		Cex: decodeCex(sys, fe, cnf, model, n, -1)}, nil
}

// lowerAssumes lowers the system's assumptions; only bounded
// assumption properties are supported (standard for stimulus
// constraints).
func lowerAssumes(sys *rtl.System) ([]ltl.Formula, error) {
	var out []ltl.Formula
	for _, a := range sys.Assumes {
		f, err := ltl.LowerAssertion(a)
		if err != nil {
			return nil, err
		}
		if ltl.HasUnbounded(f) {
			return nil, &ltl.LowerError{Reason: "unbounded assume properties are not supported"}
		}
		out = append(out, f)
	}
	return out, nil
}

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

// frameEnv implements ltl.Env over an unrolled transition system.
type frameEnv struct {
	b   *logic.Builder
	sys *rtl.System
	ev  *ltl.ExprEval

	inputs map[sigPos]bitvec.BV
	states map[sigPos]bitvec.BV
	nets   map[sigPos]bitvec.BV
	busy   map[sigPos]bool
	frames int // register frames built (frame 0 by initFrame0)
}

type sigPos struct {
	name string
	pos  int
}

func newFrameEnv(b *logic.Builder, sys *rtl.System) *frameEnv {
	fe := &frameEnv{
		b:      b,
		sys:    sys,
		inputs: map[sigPos]bitvec.BV{},
		states: map[sigPos]bitvec.BV{},
		nets:   map[sigPos]bitvec.BV{},
		busy:   map[sigPos]bool{},
	}
	fe.ev = &ltl.ExprEval{Ops: bitvec.Ops{B: b}, Env: fe}
	return fe
}

// initFrame0 seats frame-0 register values: concrete reset values, or
// fresh variables for the inductive step.
func (fe *frameEnv) initFrame0(free bool) {
	for _, r := range fe.sys.Regs {
		key := sigPos{r.Name, 0}
		if free {
			fe.states[key] = bitvec.Inputs(fe.b, r.Width)
		} else {
			fe.states[key] = bitvec.Const(r.Init, r.Width)
		}
	}
	fe.frames = 1
}

// unroll extends register states through frame n (exclusive). A frame
// is committed only once every register's next state has evaluated,
// so a failure leaves no half-built frame behind.
func (fe *frameEnv) unroll(n int) error {
	for p := fe.frames; p < n; p++ {
		next := make([]bitvec.BV, len(fe.sys.Regs))
		for i, r := range fe.sys.Regs {
			v, err := fe.ev.Eval(r.Next, p-1)
			if err != nil {
				return err
			}
			next[i] = v.Extend(r.Width)
		}
		for i, r := range fe.sys.Regs {
			fe.states[sigPos{r.Name, p}] = next[i]
		}
		fe.frames = p + 1
	}
	return nil
}

// rebind points the environment at sys, a system with the same
// transition fingerprint as the one it was unrolling (DESIGN.md §7),
// and reports whether sys is a different system. Registers, inputs and
// the nets inside the fingerprint's cone resolve identically under
// both; cached nets outside it are dropped, so a helper net the new
// system defines differently is evaluated afresh. The expression memos
// go too: they are keyed by expression identity, and two systems may
// share an expression (one parsed assertion checked against both)
// whose value differs between them.
func (fe *frameEnv) rebind(sys *rtl.System, cone map[string]bool) bool {
	if fe.sys == sys {
		return false
	}
	fe.sys = sys
	for key := range fe.nets {
		if !cone[key.name] {
			delete(fe.nets, key)
		}
	}
	fe.ev = &ltl.ExprEval{Ops: fe.ev.Ops, Env: fe}
	return true
}

// Signal implements ltl.Env.
func (fe *frameEnv) Signal(name string, pos int) (bitvec.BV, error) {
	key := sigPos{name, pos}
	if v, ok := fe.states[key]; ok {
		return v, nil
	}
	if fe.sys.IsInput(name) {
		if v, ok := fe.inputs[key]; ok {
			return v, nil
		}
		w := fe.sys.Widths[name]
		v := bitvec.Inputs(fe.b, w)
		fe.inputs[key] = v
		return v, nil
	}
	if _, isReg := fe.sys.RegByName(name); isReg {
		// register value requested beyond the unrolled range
		return bitvec.BV{}, &ltl.ElabError{Reason: fmt.Sprintf("register %s not unrolled at %d", name, pos)}
	}
	if net, ok := fe.sys.NetByName(name); ok {
		if v, ok := fe.nets[key]; ok {
			return v, nil
		}
		if fe.busy[key] {
			return bitvec.BV{}, &ltl.ElabError{Reason: "combinational loop through \"" + name + "\""}
		}
		fe.busy[key] = true
		v, err := fe.ev.Eval(net.Expr, pos)
		delete(fe.busy, key)
		if err != nil {
			return bitvec.BV{}, err
		}
		v = v.Extend(net.Width)
		fe.nets[key] = v
		return v, nil
	}
	return bitvec.BV{}, &ltl.ElabError{Reason: fmt.Sprintf("undeclared identifier %q", name)}
}

// SignalWidth implements ltl.Env.
func (fe *frameEnv) SignalWidth(name string) (int, bool) {
	w, ok := fe.sys.Widths[name]
	return w, ok
}

// Constant implements ltl.Env.
func (fe *frameEnv) Constant(name string) (uint64, int, bool) {
	c, ok := fe.sys.Consts[name]
	return c.Value, c.Width, ok
}

// violation builds "attempt at position p fails and is not aborted":
// the property is false at p and the abort expression stays low across
// the attempt window.
func violation(fe *frameEnv, le *ltl.LassoEval, f ltl.Formula, abort sva.Expr, p, window int, lasso bool) (logic.Node, error) {
	truth, err := le.Truth(f, p)
	if err != nil {
		return logic.False, err
	}
	viol := truth.Not()
	if abort != nil {
		if lasso {
			for _, j := range lassoReach(le, p) {
				ab, err := fe.ev.Bool(abort, j)
				if err != nil {
					return logic.False, err
				}
				viol = fe.b.And(viol, ab.Not())
			}
		} else {
			for j := p; j <= p+window && j < le.K; j++ {
				ab, err := fe.ev.Bool(abort, j)
				if err != nil {
					return logic.False, err
				}
				viol = fe.b.And(viol, ab.Not())
			}
		}
	}
	return viol, nil
}

func lassoReach(le *ltl.LassoEval, p int) []int {
	var out []int
	seen := map[int]bool{}
	for j := p; j < le.K; j++ {
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	for j := le.L; j < le.K; j++ {
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

func checkLiveness(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, opt Options) (Result, error) {
	k := opt.LassoBound
	if d := ltl.Depth(f) + 3; d > k {
		k = d
	}
	started := time.Now()
	b := logic.NewBuilder()
	fe := newFrameEnv(b, sys)
	fe.initFrame0(false)
	if err := fe.unroll(k); err != nil {
		return Result{}, err
	}
	ops := bitvec.Ops{B: b}
	perLoop := map[int]logic.Node{}
	total := logic.False
	for l := 0; l < k; l++ {
		le := ltl.NewLassoEval(fe.ev, k, l)
		// loop closure: next-state of frame k-1 equals state at l —
		// and the loop's input columns repeat by construction.
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
		// inputs must repeat across the loop seam for the lasso to be
		// a genuine infinite trace.
		viol := logic.False
		for p := 0; p < k; p++ {
			v, err := violation(fe, le, f, abort, p, 0, true)
			if err != nil {
				return Result{}, err
			}
			viol = b.Or(viol, v)
		}
		// assumptions hold at every lasso position
		for _, af := range assumes {
			for p := 0; p < k; p++ {
				an, err := le.Truth(af, p)
				if err != nil {
					return Result{}, err
				}
				closure = b.And(closure, an)
			}
		}
		node := b.And(closure, viol)
		perLoop[l] = node
		total = b.Or(total, node)
	}
	s := sat.New()
	if opt.Budget > 0 {
		s.SetBudget(opt.Budget)
	}
	cnf := logic.NewCNF(b, s)
	cnf.Assert(total)
	rsp := opt.Span.Child("lasso").SetPhase(obs.PhaseSAT).SetInt("bound", int64(k))
	ok, model, err := s.SolveModel()
	if err != nil {
		rsp.SetStr("verdict", "error")
	} else if ok {
		rsp.SetStr("verdict", "sat")
	} else {
		rsp.SetStr("verdict", "unsat")
	}
	rsp.End()
	opt.Stats.Query(1, s.Stats().Conflicts, 0, false)
	opt.Stats.SolveWall(time.Since(started).Nanoseconds())
	if err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{Status: Proven, Bounded: true, Depth: k}, nil
	}
	loop := -1
	sim := modelSim(fe, cnf, model)
	for l, node := range perLoop {
		if sim.Bit(node, 0) {
			loop = l
			break
		}
	}
	return Result{Status: Falsified, Depth: k, Cex: decodeCexLane(sys, fe, sim, 0, k, loop)}, nil
}

// modelSim broadcasts a SAT model's free-variable values into a
// one-lane run of the dense bit-parallel evaluator; derived nets and
// register states are recomputed from the inputs, exactly as the
// map-based evaluator did.
func modelSim(fe *frameEnv, cnf *logic.CNF, model []bool) *logic.Sim {
	sim := logic.NewSim(fe.b)
	set := func(bv bitvec.BV) {
		for _, bit := range bv.Bits {
			if !bit.IsConst() && fe.b.IsInput(bit) && cnf.InputValue(model, bit) != bit.Compl() {
				sim.SetInput(bit, ^uint64(0))
			}
		}
	}
	for _, bv := range fe.inputs {
		set(bv)
	}
	for _, bv := range fe.states {
		set(bv)
	}
	sim.Run()
	return sim
}

func decodeCex(sys *rtl.System, fe *frameEnv, cnf *logic.CNF, model []bool, n, loop int) *Cex {
	return decodeCexLane(sys, fe, modelSim(fe, cnf, model), 0, n, loop)
}

// decodeCexLane reads one simulation lane off as a counterexample —
// the shared decode path of SAT models (broadcast to lane 0) and
// prefilter hits (whose lane is already a complete assignment).
func decodeCexLane(sys *rtl.System, fe *frameEnv, sim *logic.Sim, lane, n, loop int) *Cex {
	cex := &Cex{Loop: loop}
	for p := 0; p < n; p++ {
		frame := map[string]uint64{}
		for _, in := range sys.Inputs {
			if bv, ok := fe.inputs[sigPos{in.Name, p}]; ok {
				frame[in.Name] = decodeBVLane(bv, sim, lane)
			}
		}
		for _, r := range sys.Regs {
			if bv, ok := fe.states[sigPos{r.Name, p}]; ok {
				frame[r.Name] = decodeBVLane(bv, sim, lane)
			}
		}
		cex.Frames = append(cex.Frames, frame)
	}
	return cex
}

func decodeBVLane(bv bitvec.BV, sim *logic.Sim, lane int) uint64 {
	var v uint64
	for i, bit := range bv.Bits {
		if i >= 64 {
			break
		}
		if sim.Bit(bit, lane) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// bankCex folds a decoded counterexample into the shared pattern bank
// as a signal-level trace (inputs and register states both: register
// names seed the free initial state of later induction sessions).
func bankCex(bank *formal.Bank, cex *Cex) {
	if bank == nil || cex == nil || len(cex.Frames) == 0 {
		return
	}
	vals := map[string][]uint64{}
	for p, frame := range cex.Frames {
		for name, v := range frame {
			if _, ok := vals[name]; !ok {
				vals[name] = make([]uint64, len(cex.Frames))
			}
			vals[name][p] = v
		}
	}
	bank.Add(formal.Pattern{Len: len(cex.Frames), Vals: vals})
}
