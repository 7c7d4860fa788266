package mc

import (
	"time"

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/logic"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// Design is a per-design checking context (DESIGN.md §7, "Row
// sessions"). It keeps one base session and one induction step
// session alive across checks whose systems share a transition
// relation, so the candidate properties of one design share the
// register unroll, the Tseitin encoding, the solvers' learnt clauses
// and the prefilter's simulator. Safety checks use both sessions;
// liveness and cover checks use the base session. Each check owns an
// activation literal: its stimulus-assumption instances, assumed-lemma
// instances and induction good-attempt constraints are asserted under
// it and retired when the check ends, so every query sees exactly the
// constraints a fresh session would assert. The pair serves the
// systems of one base (rtl.System.Base): the base itself and its
// overlays, which share its inputs, registers and nets. A check on a
// system of another base opens a fresh pair.
//
// A Design is not safe for concurrent use: give each goroutine its
// own, and let it die with the design it served.
type Design struct {
	sys        *rtl.System // system of the last check
	base, step *safetySession
	// schedule runs a safety check's base and step obligations; nil
	// means safety. Tests swap in a reference schedule.
	schedule func(base, step *obligation, opt Options) (Result, bool, error)
}

// NewDesign returns an empty context; it builds nothing until the
// first check.
func NewDesign() *Design { return &Design{} }

// sessions returns the session pair for sys: the live pair when sys
// has the last check's base, a fresh pair otherwise. The pair's frame
// environments are rebound to sys.
func (c *Design) sessions(sys *rtl.System) (base, step *safetySession) {
	if c.sys == nil || sys.Base() != c.sys.Base() {
		c.base, c.step = nil, nil
	}
	c.sys = sys
	if c.base == nil {
		c.base = newSafetySession(sys, false)
		c.step = newSafetySession(sys, true)
	}
	c.base.rebind(sys)
	c.step.rebind(sys)
	return c.base, c.step
}

// CheckAssertion proves or falsifies an assertion against the system:
// safety properties on the session pair, liveness on the base session.
// Assumptions declared in the system (assume property) constrain the
// explored traces.
func (c *Design) CheckAssertion(sys *rtl.System, a *sva.Assertion, opt Options) (Result, error) {
	opt = opt.withDefaults()
	f, err := ltl.LowerAssertion(a)
	if err != nil {
		return Result{}, err
	}
	assumes, err := lowerAssumes(sys)
	if err != nil {
		return Result{}, err
	}
	if ltl.HasUnbounded(f) {
		return c.checkLiveness(sys, f, a.DisableIff, assumes, opt)
	}
	return c.checkSafety(sys, f, a.DisableIff, assumes, nil, opt)
}

// CheckCover decides reachability for a cover property, as one query on
// the base session: whether some trace from reset (satisfying the
// system's assumptions) reaches a position where the property holds.
// Covered results carry the witness trace.
func (c *Design) CheckCover(sys *rtl.System, a *sva.Assertion, opt Options) (Result, error) {
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
	started := time.Now()
	base, _ := c.sessions(sys)
	ob := base.open(sys, f, nil, assumes, nil, ltl.Depth(f), opt)
	res, err := ob.cover()
	c.finish(opt, started, false, ob)
	return res, err
}

// checkLiveness runs the lasso query as one obligation on c's base
// session.
func (c *Design) checkLiveness(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, opt Options) (Result, error) {
	started := time.Now()
	base, _ := c.sessions(sys)
	d := ltl.Depth(f)
	ob := base.open(sys, f, abort, assumes, nil, d, opt)
	res, err := ob.lasso(max(lassoBound, d+3))
	c.finish(opt, started, false, ob)
	return res, err
}

// checkSafety runs a safety property as one obligation on each session
// of the pair.
func (c *Design) checkSafety(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, lemmas []assumedLemma, opt Options) (Result, error) {
	started := time.Now()
	baseSS, stepSS := c.sessions(sys)
	d := ltl.Depth(f)
	base := baseSS.open(sys, f, abort, assumes, lemmas, d, opt)
	step := stepSS.open(sys, f, abort, assumes, lemmas, d, opt)
	schedule := c.schedule
	if schedule == nil {
		schedule = safety
	}
	res, early, err := schedule(base, step, opt)
	c.finish(opt, started, early, base, step)
	return res, err
}

// finish closes a check's obligations — on error exits too, so budget
// exhaustion and elaboration failures still account their solver work
// and retire their literals — and records the check's wall time. A
// pair whose transition relation failed to unroll is dropped rather
// than serve later checks in that state.
func (c *Design) finish(opt Options, started time.Time, early bool, obls ...*obligation) {
	for _, ob := range obls {
		ob.Close(early)
	}
	if c.base.broken || c.step.broken {
		c.base, c.step = nil, nil
	}
	opt.Stats.SolveWall(time.Since(started).Nanoseconds())
}

// safety interleaves BMC base cases with induction steps; early marks
// a verdict reached before the last depth. The verdict is the one a
// lockstep schedule gives (base depth k, then step k, for k = 1, 2,
// ...): before step k the base has checked depths 1..k in order, so
// Proven at k still rests on a clean base up to k. Between steps the
// base may run ahead, never past MaxInduction, starting a query only
// while its solver work in this check is below the step's (DESIGN.md
// §7, "Safety ramp"): a counterexample behind depths that fold to
// constant false then ends the check before the step pays for hard,
// satisfiable induction queries. A counterexample found ahead is the
// first in depth order, since every shallower depth was clean, and
// sound induction cannot prove below it. An error found ahead is held
// back and returned only when the lockstep schedule would have reached
// its depth, so a proof at a smaller k still wins.
func safety(base, step *obligation, opt Options) (res Result, early bool, err error) {
	next := 1      // next base depth to check; 1..next-1 are clean
	var held error // base error at depth next, met running ahead
	for k := 1; k <= opt.MaxInduction; k++ {
		for next <= k || held == nil && next <= opt.MaxInduction && base.Propagations() < step.Propagations() {
			if held != nil {
				return Result{}, false, held
			}
			// Base: frames 0..next+d from reset; frontier attempt next-1.
			cex, err := base.checkDepth(next)
			if err != nil && next > k {
				held = err
				break
			}
			if err != nil {
				return Result{}, false, err
			}
			if cex != nil {
				return Result{Verdict: formal.Verdict{Class: formal.Falsified, Depth: next}, Cex: cex}, true, nil
			}
			next++
		}
		// Step: free initial state; no violation in 0..k-1, violation
		// at k.
		ind, err := step.induct(k)
		if err != nil {
			return Result{}, false, err
		}
		if ind {
			return Result{Verdict: formal.Verdict{Class: formal.Proven, Depth: k}}, true, nil
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
		if _, err := base.grow(opt.BMCDepth + base.d + 1); err != nil {
			return Result{}, false, err
		}
	}
	for k := next; k <= opt.BMCDepth; k++ {
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

// safetySession is one side of a Design — the base session from reset,
// or the induction step session from a free state: a formal.Session
// plus the frame environment unrolled over its builder (DESIGN.md §7).
// The unroll grows frame by frame as checks ask for deeper bounds;
// everything the core carries (encoding, learnt clauses, simulator)
// serves every depth of every check opened on it.
type safetySession struct {
	*formal.Session
	fe       *frameEnv
	family   *ltl.LassoFamily
	freeInit bool
	broken   bool            // an unroll failed: serve no further check
	cols     []formal.Column // column buffer, reused by every query
}

func newSafetySession(sys *rtl.System, freeInit bool) *safetySession {
	core := formal.NewSession()
	fe := newFrameEnv(core.B, sys)
	fe.initFrame0(freeInit)
	return &safetySession{Session: core, fe: fe, family: ltl.NewLassoFamily(fe.ev), freeInit: freeInit}
}

// rebind points the session at sys (see frameEnv.rebind); the lasso
// evaluators, whose memos hang off the expression evaluator, restart
// with it.
func (ss *safetySession) rebind(sys *rtl.System) {
	if ss.fe.rebind(sys) {
		ss.family = ltl.NewLassoFamily(ss.fe.ev)
	}
}

// obligation is one check's claim on a session: the core obligation
// plus the property, its path constraints, and how far the check has
// asserted them.
type obligation struct {
	*formal.Obligation
	ss      *safetySession
	sys     *rtl.System
	f       ltl.Formula
	abort   sva.Expr
	assumes []ltl.Formula
	lemmas  []assumedLemma
	d       int
	opt     Options

	// bound is the largest unroll this check asked for. Assumption
	// and lemma instances are asserted only inside it, whatever depth
	// earlier checks took the session to.
	bound    int
	asmNext  []int // per assumption: next position to assert
	lemNext  []int // per assumed lemma: next position to assert
	goodNext int   // induction: good-attempt constraints asserted below this
}

// open starts a check on the session.
func (ss *safetySession) open(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, lemmas []assumedLemma, d int, opt Options) *obligation {
	return &obligation{
		Obligation: ss.Open(opt.Search),
		ss:         ss, sys: sys, f: f, abort: abort, assumes: assumes, lemmas: lemmas, d: d, opt: opt,
		asmNext: make([]int, len(assumes)),
		lemNext: make([]int, len(lemmas)),
	}
}

// grow extends the session's unroll to at least n frames, raises the
// check's bound to n, and adds every assumption and lemma instance
// whose bounded window newly fits inside that bound. It returns the
// lasso evaluator at the check's bound: bounded formulas evaluated
// strictly inside the unroll never reach the saturating last frame, so
// nodes built at smaller bounds are structurally identical at larger
// ones and the CNF layer emits nothing twice.
func (ob *obligation) grow(n int) (*ltl.LassoEval, error) {
	ss := ob.ss
	if err := ss.fe.unroll(n); err != nil {
		ss.broken = true
		return nil, err
	}
	ob.bound = max(ob.bound, n)
	le := ss.family.At(ob.bound, ob.bound-1)
	for i, af := range ob.assumes {
		ad := ltl.Depth(af)
		for p := ob.asmNext[i]; p+ad < ob.bound; p++ {
			node, err := le.Truth(af, p)
			if err != nil {
				return nil, err
			}
			ob.Constrain(node)
			ob.asmNext[i] = p + 1
		}
	}
	// Assumed lemmas constrain every position the same way stimulus
	// assumptions do, except abort-aware: the constraint at p is the
	// negation of the lemma's violation there ("the lemma holds at p,
	// or its attempt is aborted"). In the induction session this is
	// exactly the hypothesis strengthening of prove-then-assume: free
	// initial states outside a proved invariant are discarded, which is
	// sound because every reachable state satisfies it.
	for i, lm := range ob.lemmas {
		for p := ob.lemNext[i]; p+lm.d < ob.bound; p++ {
			v, err := violation(ss.fe, le, lm.f, lm.abort, p, lm.d, false)
			if err != nil {
				return nil, err
			}
			ob.Constrain(v.Not())
			ob.lemNext[i] = p + 1
		}
	}
	return le, nil
}

// find looks for a trace from the session's initial frame satisfying
// one of targets under the check's path constraints (formal.Find, a
// span named span at bound) and lays it out over the check's frames as
// a finite Cex. It returns the index of the target the trace satisfies;
// a nil Cex means none exists.
func (ob *obligation) find(span string, bound int, targets ...logic.Node) (int, *Cex, error) {
	i, p, err := ob.Find(span, bound, ob.inputColumns(), ob.frames, true, targets...)
	if i < 0 || err != nil {
		return i, nil, err
	}
	// Find decoded over frames, which left those columns in the
	// session's buffer.
	return i, cexOf(p, ob.ss.cols), nil
}

// frames lists the columns a found trace is decoded over: every pair
// built below the check's bound.
func (ob *obligation) frames() ([]formal.Column, int) {
	return ob.ss.frameColumns(ob.bound), ob.bound
}

// checkDepth asks whether the attempt at position k-1 can be violated
// from the session's initial frame (the incremental BMC base case:
// attempts below k-1 were refuted at earlier depths under a subset of
// the current stimulus constraints, so they stay refuted and only the
// frontier needs solving).
func (ob *obligation) checkDepth(k int) (*Cex, error) {
	le, err := ob.grow(k + ob.d + 1)
	if err != nil {
		return nil, err
	}
	v, err := violation(ob.ss.fe, le, ob.f, ob.abort, k-1, ob.d, false)
	if err != nil {
		return nil, err
	}
	_, cex, err := ob.find("bmc", k, v)
	return cex, err
}

// induct checks whether k consecutive good attempts from an arbitrary
// state force the k+1st to be good. true = inductive. Good-attempt
// path constraints accumulate under the check's literal as k grows;
// only the bad k-th attempt is assumed per depth. A simulated lane with
// k good attempts followed by a bad one is a concrete refutation of the
// step, and needs no decoding; a refuting SAT model (free initial state
// plus stimulus) still goes into the bank to seed the prefilter for
// later depths and runs.
func (ob *obligation) induct(k int) (bool, error) {
	ss := ob.ss
	le, err := ob.grow(k + ob.d + 2)
	if err != nil {
		return false, err
	}
	for p := ob.goodNext; p < k; p++ {
		v, err := violation(ss.fe, le, ob.f, ob.abort, p, ob.d, false)
		if err != nil {
			return false, err
		}
		ob.Constrain(v.Not())
	}
	ob.goodNext = k
	v, err := violation(ss.fe, le, ob.f, ob.abort, k, ob.d, false)
	if err != nil {
		return false, err
	}
	i, _, err := ob.Find("induct", k, ob.inputColumns(), ob.frames, false, v)
	return i < 0, err
}

// cover asks whether the property holds at some position below the BMC
// depth on a trace from reset, under the system's assumptions.
func (ob *obligation) cover() (Result, error) {
	depth := ob.opt.BMCDepth
	le, err := ob.grow(depth + ob.d + 1)
	if err != nil {
		return Result{}, err
	}
	hits := make([]logic.Node, depth)
	for p := range hits {
		hits[p], err = le.Truth(ob.f, p)
		if err != nil {
			return Result{}, err
		}
	}
	_, cex, err := ob.find("bmc", depth, hits...)
	if err != nil {
		return Result{}, err
	}
	if cex == nil {
		// not reachable within the bound
		return Result{Verdict: formal.Verdict{Class: formal.Falsified, Reason: formal.Bound, Depth: depth}}, nil
	}
	return Result{Verdict: formal.Verdict{Class: formal.Proven, Depth: depth}, Cex: cex}, nil
}

// lasso searches for a lasso-shaped counterexample of k frames from
// reset: for some loop entry l, the next state of frame k-1 equals the
// state at l (the inputs repeat by construction), the property is
// violated without abort at some position, and every assumption holds
// at every position. Absence is a proof up to k (formal.Bound).
func (ob *obligation) lasso(k int) (Result, error) {
	ss := ob.ss
	fe, b := ss.fe, ss.B
	if err := fe.unroll(k); err != nil {
		ss.broken = true
		return Result{}, err
	}
	ob.bound = k
	ops := bitvec.Ops{B: b}
	loops := make([]logic.Node, k)
	for l := range loops {
		le := ss.family.At(k, l)
		closure := logic.True
		for _, r := range ob.sys.Regs {
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
			v, err := violation(fe, le, ob.f, ob.abort, p, 0, true)
			if err != nil {
				return Result{}, err
			}
			viol = b.Or(viol, v)
		}
		for _, af := range ob.assumes {
			for p := 0; p < k; p++ {
				an, err := le.Truth(af, p)
				if err != nil {
					return Result{}, err
				}
				closure = b.And(closure, an)
			}
		}
		loops[l] = b.And(closure, viol)
	}
	l, cex, err := ob.find("lasso", k, loops...)
	if err != nil {
		return Result{}, err
	}
	if cex == nil {
		return Result{Verdict: formal.Verdict{Class: formal.Proven, Reason: formal.Bound, Depth: k}}, nil
	}
	cex.Loop = l
	return Result{Verdict: formal.Verdict{Class: formal.Falsified, Depth: k}, Cex: cex}, nil
}

// inputColumns lists what a prefilter round assigns: every free input
// at every frame inside the check's bound, in declaration order (which
// keeps the random stream deterministic), then an induction session's
// free initial registers. Those seed from the banked traces' first
// frame: recycled valid-looking states refute induction steps where
// uniform random state bits rarely do. The slice is the session's
// column buffer, valid until the next inputColumns or frameColumns.
func (ob *obligation) inputColumns() []formal.Column {
	fe := ob.ss.fe
	cols := ob.ss.cols[:0]
	for _, in := range ob.sys.Inputs {
		for p := 0; p < ob.bound; p++ {
			if bv, ok := fe.inputs[sigPos{in.Name, p}]; ok {
				cols = append(cols, formal.Column{Name: in.Name, Pos: p, Bits: bv.Bits})
			}
		}
	}
	if ob.ss.freeInit {
		for _, r := range ob.sys.Regs {
			if bv, ok := fe.states[sigPos{r.Name, 0}]; ok {
				cols = append(cols, formal.Column{Name: r.Name, Bits: bv.Bits, Init: true})
			}
		}
	}
	ob.ss.cols = cols
	return cols
}

// frameColumns lists what a counterexample reports: the free inputs
// and the register states built at each frame below n (frameEnv builds
// registers on demand). The slice is the session's column buffer,
// valid until the next inputColumns or frameColumns.
func (ss *safetySession) frameColumns(n int) []formal.Column {
	cols := ss.cols[:0]
	for p := 0; p < n; p++ {
		for _, in := range ss.fe.sys.Inputs {
			if bv, ok := ss.fe.inputs[sigPos{in.Name, p}]; ok {
				cols = append(cols, formal.Column{Name: in.Name, Pos: p, Bits: bv.Bits})
			}
		}
		for _, r := range ss.fe.sys.Regs {
			if bv, ok := ss.fe.states[sigPos{r.Name, p}]; ok {
				cols = append(cols, formal.Column{Name: r.Name, Pos: p, Bits: bv.Bits})
			}
		}
	}
	ss.cols = cols
	return cols
}
