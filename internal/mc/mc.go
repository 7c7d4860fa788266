// Package mc model-checks SVA assertions against elaborated RTL — the
// role of the commercial tool's proof engines in the paper's
// Design2SVA evaluation. Safety properties are falsified with bounded
// model checking and proven with k-induction; liveness properties are
// falsified with lasso-shaped bounded search (absence of a lasso
// counterexample within the bound is reported as a bounded proof).
//
// Safety checking is incremental (DESIGN.md §7): one persistent
// solver serves the BMC base cases (frame-by-frame unroll, per-depth
// bad-state activation literals, early exit on the first
// counterexample) and a second persistent solver is shared across the
// k-induction steps, so learnt clauses and the Tseitin encoding are
// paid for once per assertion rather than once per depth.
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
// explored traces.
func CheckAssertion(sys *rtl.System, a *sva.Assertion, opt Options) (Result, error) {
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
		return checkLiveness(sys, f, abort, assumes, opt)
	}
	return checkSafety(sys, f, abort, assumes, nil, opt)
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
}

// unroll extends register states through frame n (exclusive).
func (fe *frameEnv) unroll(n int) error {
	for p := 1; p < n; p++ {
		if _, ok := fe.states[sigPos{firstRegName(fe.sys), p}]; ok && len(fe.sys.Regs) > 0 {
			continue
		}
		for _, r := range fe.sys.Regs {
			next, err := fe.ev.Eval(r.Next, p-1)
			if err != nil {
				return err
			}
			fe.states[sigPos{r.Name, p}] = next.Extend(r.Width)
		}
	}
	return nil
}

func firstRegName(sys *rtl.System) string {
	if len(sys.Regs) > 0 {
		return sys.Regs[0].Name
	}
	return ""
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
		if err != nil {
			return bitvec.BV{}, err
		}
		delete(fe.busy, key)
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

// safetySession is a persistent incremental solving context for one
// side of the safety check (BMC base case or induction step): one
// builder, frame environment, and SAT solver serve every depth, with
// the unroll extended frame by frame, assumption instances asserted as
// their windows come into range, and each depth's bad-state constraint
// gated behind an activation literal (DESIGN.md §7). Learnt clauses,
// variable activity, and the Tseitin encoding all carry across depths.
type safetySession struct {
	sys     *rtl.System
	f       ltl.Formula
	abort   sva.Expr
	assumes []ltl.Formula
	lemmas  []assumedLemma
	d       int
	opt     Options

	b      *logic.Builder
	fe     *frameEnv
	family *ltl.LassoFamily
	s      *sat.Solver
	cnf    *logic.CNF

	frames   int   // frames currently unrolled
	asmNext  []int // per assumption: next position to assert
	lemNext  []int // per assumed lemma: next position to assert
	goodNext int   // induction: good-attempt constraints asserted below this

	// Path constraints (assumption instances, good-attempt clauses)
	// are collected here and only flushed into the CNF right before a
	// real solver call, so a run the prefilter fully discharges never
	// pays for Tseitin encoding at all. conj is the running
	// conjunction of every constraint for the simulation side (one new
	// gate per constraint, not one chain per query); pending holds the
	// suffix the solver has not seen yet.
	conj    logic.Node
	pending []logic.Node

	// Bit-parallel prefilter state (nil / zero when disabled).
	sim      *logic.Sim
	banked   []formal.Pattern
	rng      uint64
	scratch  []uint64 // per-signal lane-word buffer, reused across rounds
	freeInit bool

	solves, conflicts, learntKept, hashMark int64
}

func newSafetySession(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, lemmas []assumedLemma, d int, freeInit bool, opt Options) *safetySession {
	b := logic.NewBuilder()
	fe := newFrameEnv(b, sys)
	fe.initFrame0(freeInit)
	s := sat.New()
	if opt.Budget > 0 {
		// Per-call budget: every depth's Solve gets the full allowance,
		// mirroring the former one-solver-per-query accounting.
		s.SetBudget(opt.Budget)
	}
	ss := &safetySession{
		sys: sys, f: f, abort: abort, assumes: assumes, lemmas: lemmas, d: d, opt: opt,
		b: b, fe: fe, family: ltl.NewLassoFamily(fe.ev),
		s: s, cnf: logic.NewCNF(b, s),
		asmNext:  make([]int, len(assumes)),
		lemNext:  make([]int, len(lemmas)),
		conj:     logic.True,
		freeInit: freeInit,
	}
	if opt.SimPatterns > 0 {
		ss.sim = logic.NewSim(b)
		ss.banked = opt.Bank.Patterns(64)
		// Fixed seed: deterministic pattern stream per session.
		ss.rng = 0x5eed5eed5eed5eed
	}
	return ss
}

// addConstraint records a permanent path constraint: visible to the
// prefilter immediately (folded into the running conjunction),
// asserted into the CNF lazily.
func (ss *safetySession) addConstraint(n logic.Node) {
	ss.conj = ss.b.And(ss.conj, n)
	ss.pending = append(ss.pending, n)
}

// simRefute simulates banked + random patterns over the session's
// path constraints conjoined with the violation v. A satisfying lane
// is a complete concrete witness for the depth's SAT query — the
// caller reads it off the still-warm Sim. Missing is not a verdict.
func (ss *safetySession) simRefute(v logic.Node) (int, bool, bool) {
	if ss.sim == nil {
		return 0, false, false
	}
	target := ss.b.And(v, ss.conj)
	if target == logic.False {
		return 0, false, false
	}
	// Refresh the bank snapshot per query: models found earlier in this
	// very session (or by its sibling) are the best predictors of the
	// next depth's refutation.
	ss.banked = ss.opt.Bank.Patterns(64)
	// Free-initial-state sessions get one structured round first: lane
	// j seeds every register with the small value j, sweeping all 64
	// low state encodings at once — for the benchmark's FSM and
	// shallow-pipeline designs this covers the entire state space
	// deterministically, where uniform random 16-bit states almost
	// never land on a valid encoding.
	if ss.freeInit {
		ss.setSimInputs(-1, 0)
		ss.sim.Run()
		ss.opt.Stats.SimPatterns(64)
		if lane, ok := ss.sim.FirstLane(target); ok {
			return lane, true, false
		}
	}
	remaining := ss.opt.SimPatterns
	for round := 0; remaining > 0 || (round == 0 && len(ss.banked) > 0); round++ {
		bankLanes := 0
		if round == 0 {
			bankLanes = len(ss.banked)
		}
		bankMask := ^uint64(0)
		if bankLanes < 64 {
			bankMask = 1<<uint(bankLanes) - 1
		}
		ss.setSimInputs(bankLanes, bankMask)
		ss.sim.Run()
		ss.opt.Stats.SimPatterns(64)
		remaining -= 64 - bankLanes
		if lane, ok := ss.sim.FirstLane(target); ok {
			return lane, true, lane < bankLanes
		}
	}
	return 0, false, false
}

// laneIndexMasks[i] holds bit i of the lane number in every lane:
// loading them into a register's low bits makes lane j's register
// value equal j.
var laneIndexMasks = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// setSimInputs loads one round of patterns: free inputs at every
// unrolled frame, plus the free initial registers of an induction
// session. Iteration follows the system's declaration order, keeping
// the random stream deterministic. bankLanes < 0 selects the
// structured state round: random inputs, lane-index register values.
func (ss *safetySession) setSimInputs(bankLanes int, bankMask uint64) {
	structured := bankLanes < 0
	if structured {
		bankLanes = 0
	}
	load := func(bv bitvec.BV, fill func(words []uint64)) {
		if cap(ss.scratch) < len(bv.Bits) {
			ss.scratch = make([]uint64, len(bv.Bits))
		}
		words := ss.scratch[:len(bv.Bits)]
		fill(words)
		for i, bit := range bv.Bits {
			if bit.IsConst() {
				continue
			}
			ss.sim.SetInput(bit, words[i]|formal.SplitMix64(&ss.rng)&^bankMask)
		}
	}
	zero := func(words []uint64) {
		for i := range words {
			words[i] = 0
		}
	}
	for _, in := range ss.sys.Inputs {
		for p := 0; p < ss.frames; p++ {
			bv, ok := ss.fe.inputs[sigPos{in.Name, p}]
			if !ok {
				continue
			}
			if bankLanes > 0 {
				load(bv, func(w []uint64) { formal.LaneWords(ss.banked, bankLanes, in.Name, p, w) })
			} else {
				load(bv, zero)
			}
		}
	}
	if ss.freeInit {
		// Free initial registers seed from the banked traces' first
		// frame: recycled valid-looking states refute induction steps
		// where uniform random state bits rarely do (empirically they
		// beat deep-frame states, which tend to sit mid-violation).
		for _, r := range ss.sys.Regs {
			bv, ok := ss.fe.states[sigPos{r.Name, 0}]
			if !ok {
				continue
			}
			switch {
			case structured:
				for i, bit := range bv.Bits {
					if bit.IsConst() {
						continue
					}
					w := uint64(0)
					if i < len(laneIndexMasks) {
						w = laneIndexMasks[i]
					}
					ss.sim.SetInput(bit, w)
				}
			case bankLanes > 0:
				load(bv, func(w []uint64) { formal.LaneWords(ss.banked, bankLanes, r.Name, 0, w) })
			default:
				load(bv, zero)
			}
		}
	}
}

// grow extends the unroll to n frames and asserts every assumption
// instance whose bounded window newly fits, then returns the lasso
// evaluator for the grown bound. Bounded formulas evaluated strictly
// inside the unroll never reach the saturating last frame, so nodes
// built at smaller bounds are structurally identical at larger ones
// and the CNF layer emits nothing twice.
func (ss *safetySession) grow(n int) (*ltl.LassoEval, error) {
	if n > ss.frames {
		if err := ss.fe.unroll(n); err != nil {
			return nil, err
		}
		ss.frames = n
	}
	le := ss.family.At(ss.frames, ss.frames-1)
	for i, af := range ss.assumes {
		ad := ltl.Depth(af)
		for p := ss.asmNext[i]; p+ad < ss.frames; p++ {
			node, err := le.Truth(af, p)
			if err != nil {
				return nil, err
			}
			ss.addConstraint(node)
			ss.asmNext[i] = p + 1
		}
	}
	// Assumed lemmas constrain every position the same way stimulus
	// assumptions do, except abort-aware: the constraint at p is the
	// negation of the lemma's violation there ("the lemma holds at p,
	// or its attempt is aborted"). In the induction session this is
	// exactly the hypothesis strengthening of prove-then-assume: free
	// initial states outside a proved invariant are discarded, which is
	// sound because every reachable state satisfies it.
	for i, lm := range ss.lemmas {
		for p := ss.lemNext[i]; p+lm.d < ss.frames; p++ {
			v, err := violation(ss.fe, le, lm.f, lm.abort, p, lm.d, false)
			if err != nil {
				return nil, err
			}
			ss.addConstraint(v.Not())
			ss.lemNext[i] = p + 1
		}
	}
	return le, nil
}

// solveGated solves under a fresh activation literal guarding node v;
// on UNSAT the activation is retired so later depths drop the
// constraint but keep everything learnt. Pending path constraints are
// flushed into the CNF first (in the order they accumulated, so the
// encoding matches the eager-assertion layout exactly).
func (ss *safetySession) solveGated(v logic.Node) (bool, []bool, error) {
	for _, n := range ss.pending {
		ss.cnf.Assert(n)
	}
	ss.pending = ss.pending[:0]
	act := ss.b.Input()
	ss.cnf.AssertIf(act, v)
	pre := ss.s.Stats()
	if pre.Solves > 0 {
		ss.learntKept += int64(pre.Learnt)
	}
	ok, model, err := ss.s.SolveModel(ss.cnf.Lit(act))
	post := ss.s.Stats()
	ss.solves++
	ss.conflicts += post.Conflicts - pre.Conflicts
	if pre.Solves == 0 {
		ss.hashMark = ss.b.HashHits()
	}
	if err != nil || !ok {
		ss.cnf.Retire(act)
	}
	return ok, model, err
}

// checkDepth asks whether the attempt at position k-1 can be violated
// from the session's initial frame (the incremental BMC base case:
// attempts below k-1 were refuted at earlier depths under a subset of
// the current stimulus constraints, so they stay refuted and only the
// frontier needs solving).
func (ss *safetySession) checkDepth(k int) (*Cex, error) {
	le, err := ss.grow(k + ss.d + 1)
	if err != nil {
		return nil, err
	}
	v, err := violation(ss.fe, le, ss.f, ss.abort, k-1, ss.d, false)
	if err != nil {
		return nil, err
	}
	// Refute before solving: a simulated lane violating the frontier
	// attempt under all path constraints is already the
	// counterexample — the solver (and, if nothing was solved yet, the
	// whole Tseitin encoding) is skipped.
	ssp := ss.opt.Span.Child("sim").SetPhase(obs.PhaseSim).SetInt("bound", int64(k))
	lane, hit, fromBank := ss.simRefute(v)
	ssp.SetBool("refuted", hit).SetBool("bank_hit", fromBank)
	ssp.End()
	if hit {
		ss.opt.Stats.SimRefuted(fromBank, 1)
		return decodeCexLane(ss.sys, ss.fe, ss.sim, lane, ss.frames, -1), nil
	}
	rsp := ss.opt.Span.Child("bmc").SetPhase(obs.PhaseSAT).SetInt("bound", int64(k))
	ok, model, err := ss.solveGated(v)
	if err != nil {
		rsp.SetStr("verdict", "error").End()
		return nil, err
	}
	if !ok {
		rsp.SetStr("verdict", "unsat").End()
		return nil, nil
	}
	rsp.SetStr("verdict", "sat").End()
	cex := decodeCex(ss.sys, ss.fe, ss.cnf, model, ss.frames, -1)
	bankCex(ss.opt.Bank, cex)
	return cex, nil
}

// induct checks whether k consecutive good attempts from an arbitrary
// state force the k+1st to be good. true = inductive. Good-attempt
// path constraints accumulate permanently as k grows; only the bad
// k-th attempt is gated per depth.
func (ss *safetySession) induct(k int) (bool, error) {
	le, err := ss.grow(k + ss.d + 2)
	if err != nil {
		return false, err
	}
	for p := ss.goodNext; p < k; p++ {
		v, err := violation(ss.fe, le, ss.f, ss.abort, p, ss.d, false)
		if err != nil {
			return false, err
		}
		ss.addConstraint(v.Not())
	}
	ss.goodNext = k
	v, err := violation(ss.fe, le, ss.f, ss.abort, k, ss.d, false)
	if err != nil {
		return false, err
	}
	// A simulated lane with k good attempts followed by a bad one is a
	// concrete refutation of the induction step: report "not
	// inductive" without opening the solver.
	ssp := ss.opt.Span.Child("sim").SetPhase(obs.PhaseSim).SetInt("bound", int64(k))
	_, hit, fromBank := ss.simRefute(v)
	ssp.SetBool("refuted", hit).SetBool("bank_hit", fromBank)
	ssp.End()
	if hit {
		ss.opt.Stats.SimRefuted(fromBank, 1)
		return false, nil
	}
	rsp := ss.opt.Span.Child("induct").SetPhase(obs.PhaseSAT).SetInt("bound", int64(k))
	ok, model, err := ss.solveGated(v)
	if err != nil {
		rsp.SetStr("verdict", "error").End()
		return false, err
	}
	if ok {
		rsp.SetStr("verdict", "sat")
	} else {
		rsp.SetStr("verdict", "unsat")
	}
	rsp.End()
	if ok && ss.opt.Bank != nil {
		// Fold the refuting model (free initial state + stimulus) into
		// the bank: it seeds the prefilter for later depths and runs.
		bankCex(ss.opt.Bank, decodeCex(ss.sys, ss.fe, ss.cnf, model, ss.frames, -1))
	}
	return !ok, nil
}

// report streams the session's reuse counters into the stats sink.
func (ss *safetySession) report(st *formal.Stats, early bool) {
	st.Query(ss.solves, ss.conflicts, ss.learntKept, early)
	st.GatesShared(ss.b.HashHits() - ss.hashMark)
	st.NodesEncoded(int64(ss.cnf.Encoded()))
}

func checkSafety(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, lemmas []assumedLemma, opt Options) (Result, error) {
	d := ltl.Depth(f)
	started := time.Now()
	base := newSafetySession(sys, f, abort, assumes, lemmas, d, false, opt)
	step := newSafetySession(sys, f, abort, assumes, lemmas, d, true, opt)
	finish := func(res Result, early bool) Result {
		base.report(opt.Stats, early)
		step.report(opt.Stats, early)
		opt.Stats.SolveWall(time.Since(started).Nanoseconds())
		return res
	}
	// Error exits (budget exhaustion, elaboration failures) must still
	// account the sessions' solver work.
	fail := func(err error) (Result, error) {
		finish(Result{}, false)
		return Result{}, err
	}
	// Interleave BMC base cases with induction steps on the two
	// persistent solvers.
	for k := 1; k <= opt.MaxInduction; k++ {
		// Base: frames 0..k+d from reset; frontier attempt k-1.
		cex, err := base.checkDepth(k)
		if err != nil {
			return fail(err)
		}
		if cex != nil {
			return finish(Result{Status: Falsified, Depth: k, Cex: cex}, true), nil
		}
		// Step: free initial state; no violation in 0..k-1, violation
		// at k.
		ind, err := step.induct(k)
		if err != nil {
			return fail(err)
		}
		if ind {
			return finish(Result{Status: Proven, Depth: k}, true), nil
		}
	}
	// Deep falsification ramp before giving up, continuing the base
	// session depth by depth with early exit on the first
	// counterexample. Grow to the full deep window first so every
	// frontier solves under the same assumption instances the one-shot
	// deep query (frames BMCDepth+d+1) would conjoin — state-dependent
	// assume properties beyond a frontier's own window must keep
	// rejecting traces exactly as before.
	if opt.MaxInduction < opt.BMCDepth {
		if _, err := base.grow(opt.BMCDepth + d + 1); err != nil {
			return fail(err)
		}
	}
	for k := opt.MaxInduction + 1; k <= opt.BMCDepth; k++ {
		cex, err := base.checkDepth(k)
		if err != nil {
			return fail(err)
		}
		if cex != nil {
			return finish(Result{Status: Falsified, Depth: opt.BMCDepth, Cex: cex}, k < opt.BMCDepth), nil
		}
	}
	return finish(Result{Status: Unknown, Depth: opt.BMCDepth}, false), nil
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
