package mc

import (
	"strconv"
	"strings"
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

// Design is a per-design checking context (DESIGN.md §7, "Row
// sessions"). It keeps one BMC base session and one induction step
// session alive across safety checks whose systems share a transition
// relation, so the candidate properties of one design share the
// register unroll, the Tseitin encoding, the solvers' learnt clauses
// and the prefilter's simulator. Each check owns an activation literal:
// its stimulus-assumption instances, assumed-lemma instances and
// induction good-attempt constraints are asserted under it and retired
// when the check ends, so every query sees exactly the constraints a
// fresh session would assert. A check whose transition fingerprint
// differs from the live pair's, or cannot be computed, opens a fresh
// pair.
//
// A nil *Design checks in a fresh pair that dies with the check. A
// Design is not safe for concurrent use: give each goroutine its own,
// and let it die with the design it served.
type Design struct {
	sys        *rtl.System     // system of the last check...
	fp         string          // ...its transition fingerprint ("" = none)...
	cone       map[string]bool // ...and the names the fingerprint covers
	base, step *safetySession
}

// NewDesign returns an empty context; it builds nothing until the
// first check.
func NewDesign() *Design { return &Design{} }

// sessions returns the session pair for sys: the live pair when sys is
// the last check's system or has its transition relation, a fresh pair
// otherwise. The pair's frame environments are rebound to sys.
func (c *Design) sessions(sys *rtl.System) (base, step *safetySession) {
	if sys != c.sys {
		fp, cone := fingerprint(sys)
		if fp == "" || fp != c.fp {
			c.base, c.step = nil, nil
		}
		c.sys, c.fp, c.cone = sys, fp, cone
	}
	if c.base == nil {
		c.base = newSafetySession(sys, false)
		c.step = newSafetySession(sys, true)
	}
	c.base.rebind(sys, c.cone)
	c.step.rebind(sys, c.cone)
	return c.base, c.step
}

// CheckAssertion is the package-level CheckAssertion with safety
// properties checked in c's session pair.
func (c *Design) CheckAssertion(sys *rtl.System, a *sva.Assertion, opt Options) (Result, error) {
	if c == nil {
		c = NewDesign()
	}
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
	return c.checkSafety(sys, f, abort, assumes, nil, opt)
}

// checkSafety interleaves BMC base cases with induction steps, each
// side an obligation on its session of the pair.
func (c *Design) checkSafety(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, lemmas []assumedLemma, opt Options) (Result, error) {
	d := ltl.Depth(f)
	started := time.Now()
	baseSS, stepSS := c.sessions(sys)
	base := baseSS.open(sys, f, abort, assumes, lemmas, d, opt)
	step := stepSS.open(sys, f, abort, assumes, lemmas, d, opt)
	finish := func(res Result, early bool) Result {
		base.close(early)
		step.close(early)
		if baseSS.broken || stepSS.broken {
			// The transition relation failed to unroll: drop the pair
			// rather than serve later checks a session in that state.
			c.base, c.step = nil, nil
		}
		opt.Stats.SolveWall(time.Since(started).Nanoseconds())
		return res
	}
	// Error exits (budget exhaustion, elaboration failures) must still
	// account the obligations' solver work and retire their literals.
	fail := func(err error) (Result, error) {
		finish(Result{}, false)
		return Result{}, err
	}
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

// safetySession is one side of a Design's safety checking — the BMC
// base case from reset, or the induction step from a free state: one
// builder, frame environment, CNF and SAT solver serving every depth of
// every check opened on it (DESIGN.md §7). The unroll grows frame by
// frame as checks ask for deeper bounds. Learnt clauses, variable
// activity, the Tseitin encoding and the prefilter's simulator carry
// across depths and checks; nothing a check asserts outlives it
// ungated.
type safetySession struct {
	b        *logic.Builder
	fe       *frameEnv
	family   *ltl.LassoFamily
	s        *sat.Solver
	cnf      *logic.CNF
	freeInit bool
	broken   bool // an unroll failed: serve no further check

	// Bit-parallel prefilter state: sim is built by the first check
	// that asks for the prefilter; the pattern stream runs on across
	// checks from a fixed seed.
	sim     *logic.Sim
	rng     uint64
	scratch []uint64 // per-signal lane-word buffer, reused across rounds
}

func newSafetySession(sys *rtl.System, freeInit bool) *safetySession {
	b := logic.NewBuilder()
	fe := newFrameEnv(b, sys)
	fe.initFrame0(freeInit)
	s := sat.New()
	return &safetySession{
		b: b, fe: fe, family: ltl.NewLassoFamily(fe.ev),
		s: s, cnf: logic.NewCNF(b, s),
		freeInit: freeInit,
		rng:      0x5eed5eed5eed5eed,
	}
}

// rebind points the session at sys (see frameEnv.rebind); the lasso
// evaluators, whose memos hang off the expression evaluator, restart
// with it.
func (ss *safetySession) rebind(sys *rtl.System, cone map[string]bool) {
	if ss.fe.rebind(sys, cone) {
		ss.family = ltl.NewLassoFamily(ss.fe.ev)
	}
}

// obligation is one check's claim on a session: its property, its
// path constraints, and the activation literal that gates them.
type obligation struct {
	ss      *safetySession
	sys     *rtl.System
	f       ltl.Formula
	abort   sva.Expr
	assumes []ltl.Formula
	lemmas  []assumedLemma
	d       int
	opt     Options

	// act gates every path constraint of this check (assumption and
	// lemma instances, good attempts); gated reports that it reached
	// the CNF and must be retired at close.
	act   logic.Node
	gated bool
	// bound is the largest unroll this check asked for. Assumption
	// and lemma instances are asserted only inside it, whatever depth
	// earlier checks took the session to.
	bound    int
	asmNext  []int // per assumption: next position to assert
	lemNext  []int // per assumed lemma: next position to assert
	goodNext int   // induction: good-attempt constraints asserted below this

	// Path constraints are collected here and only flushed into the
	// CNF right before a real solver call, so a check the prefilter
	// fully discharges never pays for Tseitin encoding at all. conj is
	// the running conjunction of every constraint for the simulation
	// side; pending holds the suffix the solver has not seen yet.
	conj    logic.Node
	pending []logic.Node
	banked  []formal.Pattern

	solves, conflicts, learntKept, hashMark int64
	encMark                                 int
}

// open starts a check on the session.
func (ss *safetySession) open(sys *rtl.System, f ltl.Formula, abort sva.Expr, assumes []ltl.Formula, lemmas []assumedLemma, d int, opt Options) *obligation {
	// Per-call budget: every depth's Solve gets the full allowance.
	ss.s.SetBudget(opt.Budget)
	if opt.SimPatterns > 0 && ss.sim == nil {
		ss.sim = logic.NewSim(ss.b)
	}
	return &obligation{
		ss: ss, sys: sys, f: f, abort: abort, assumes: assumes, lemmas: lemmas, d: d, opt: opt,
		act:      ss.b.Input(),
		asmNext:  make([]int, len(assumes)),
		lemNext:  make([]int, len(lemmas)),
		conj:     logic.True,
		hashMark: ss.b.HashHits(),
		encMark:  ss.cnf.Encoded(),
	}
}

// close retires the check's activation literal and streams its share
// of the session's work into the stats sink.
func (ob *obligation) close(early bool) {
	ss := ob.ss
	if ob.gated {
		ss.cnf.Retire(ob.act)
	}
	st := ob.opt.Stats
	st.Query(ob.solves, ob.conflicts, ob.learntKept, early)
	st.GatesShared(ss.b.HashHits() - ob.hashMark)
	st.NodesEncoded(int64(ss.cnf.Encoded() - ob.encMark))
}

// addConstraint records a path constraint of this check: visible to
// the prefilter immediately (folded into the running conjunction),
// asserted into the CNF under the check's literal lazily.
func (ob *obligation) addConstraint(n logic.Node) {
	ob.conj = ob.ss.b.And(ob.conj, n)
	ob.pending = append(ob.pending, n)
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
			ob.addConstraint(node)
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
			ob.addConstraint(v.Not())
			ob.lemNext[i] = p + 1
		}
	}
	return le, nil
}

// solve asks whether violation v is reachable under the check's path
// constraints. Pending constraints are flushed into the CNF under the
// check's literal first (in the order they accumulated); v itself is
// passed as an assumption, so nothing of one depth outlives its call.
func (ob *obligation) solve(v logic.Node) (bool, []bool, error) {
	ss := ob.ss
	for _, n := range ob.pending {
		ss.cnf.AssertIf(ob.act, n)
		ob.gated = true
	}
	ob.pending = ob.pending[:0]
	var assume []sat.Lit
	if ob.gated {
		assume = append(assume, ss.cnf.Lit(ob.act))
	}
	assume = append(assume, ss.cnf.Lit(v))
	pre := ss.s.Stats()
	if pre.Solves > 0 {
		ob.learntKept += int64(pre.Learnt)
	}
	ok, model, err := ss.s.SolveModel(assume...)
	ob.solves++
	ob.conflicts += ss.s.Stats().Conflicts - pre.Conflicts
	return ok, model, err
}

// checkDepth asks whether the attempt at position k-1 can be violated
// from the session's initial frame (the incremental BMC base case:
// attempts below k-1 were refuted at earlier depths under a subset of
// the current stimulus constraints, so they stay refuted and only the
// frontier needs solving).
func (ob *obligation) checkDepth(k int) (*Cex, error) {
	ss := ob.ss
	le, err := ob.grow(k + ob.d + 1)
	if err != nil {
		return nil, err
	}
	v, err := violation(ss.fe, le, ob.f, ob.abort, k-1, ob.d, false)
	if err != nil {
		return nil, err
	}
	// Refute before solving: a simulated lane violating the frontier
	// attempt under all path constraints is already the
	// counterexample — the solver (and, if nothing was solved yet, the
	// whole Tseitin encoding) is skipped.
	ssp := ob.opt.Span.Child("sim").SetPhase(obs.PhaseSim).SetInt("bound", int64(k))
	lane, hit, fromBank := ob.simRefute(v)
	ssp.SetBool("refuted", hit).SetBool("bank_hit", fromBank)
	ssp.End()
	if hit {
		ob.opt.Stats.SimRefuted(fromBank, 1)
		return decodeCexLane(ob.sys, ss.fe, ss.sim, lane, ob.bound, -1), nil
	}
	rsp := ob.opt.Span.Child("bmc").SetPhase(obs.PhaseSAT).SetInt("bound", int64(k))
	ok, model, err := ob.solve(v)
	if err != nil {
		rsp.SetStr("verdict", "error").End()
		return nil, err
	}
	if !ok {
		rsp.SetStr("verdict", "unsat").End()
		return nil, nil
	}
	rsp.SetStr("verdict", "sat").End()
	cex := decodeCex(ob.sys, ss.fe, ss.cnf, model, ob.bound, -1)
	bankCex(ob.opt.Bank, cex)
	return cex, nil
}

// induct checks whether k consecutive good attempts from an arbitrary
// state force the k+1st to be good. true = inductive. Good-attempt
// path constraints accumulate under the check's literal as k grows;
// only the bad k-th attempt is assumed per depth.
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
		ob.addConstraint(v.Not())
	}
	ob.goodNext = k
	v, err := violation(ss.fe, le, ob.f, ob.abort, k, ob.d, false)
	if err != nil {
		return false, err
	}
	// A simulated lane with k good attempts followed by a bad one is a
	// concrete refutation of the induction step: report "not
	// inductive" without opening the solver.
	ssp := ob.opt.Span.Child("sim").SetPhase(obs.PhaseSim).SetInt("bound", int64(k))
	_, hit, fromBank := ob.simRefute(v)
	ssp.SetBool("refuted", hit).SetBool("bank_hit", fromBank)
	ssp.End()
	if hit {
		ob.opt.Stats.SimRefuted(fromBank, 1)
		return false, nil
	}
	rsp := ob.opt.Span.Child("induct").SetPhase(obs.PhaseSAT).SetInt("bound", int64(k))
	ok, model, err := ob.solve(v)
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
	if ok && ob.opt.Bank != nil {
		// Fold the refuting model (free initial state + stimulus) into
		// the bank: it seeds the prefilter for later depths and runs.
		bankCex(ob.opt.Bank, decodeCex(ob.sys, ss.fe, ss.cnf, model, ob.bound, -1))
	}
	return !ok, nil
}

// simRefute simulates banked + random patterns over the check's path
// constraints conjoined with the violation v. A satisfying lane is a
// complete concrete witness for the depth's SAT query — the caller
// reads it off the still-warm Sim. Missing is not a verdict.
func (ob *obligation) simRefute(v logic.Node) (int, bool, bool) {
	ss := ob.ss
	if ob.opt.SimPatterns == 0 {
		return 0, false, false
	}
	target := ss.b.And(v, ob.conj)
	if target == logic.False {
		return 0, false, false
	}
	// Refresh the bank snapshot per query: models found earlier in this
	// very check (or by its sibling) are the best predictors of the
	// next depth's refutation.
	ob.banked = ob.opt.Bank.Patterns(64)
	// Free-initial-state sessions get one structured round first: lane
	// j seeds every register with the small value j, sweeping all 64
	// low state encodings at once — for the benchmark's FSM and
	// shallow-pipeline designs this covers the entire state space
	// deterministically, where uniform random 16-bit states almost
	// never land on a valid encoding.
	if ss.freeInit {
		ob.setSimInputs(-1, 0)
		ss.sim.Run()
		ob.opt.Stats.SimPatterns(64)
		if lane, ok := ss.sim.FirstLane(target); ok {
			return lane, true, false
		}
	}
	remaining := ob.opt.SimPatterns
	for round := 0; remaining > 0 || (round == 0 && len(ob.banked) > 0); round++ {
		bankLanes := 0
		if round == 0 {
			bankLanes = len(ob.banked)
		}
		bankMask := ^uint64(0)
		if bankLanes < 64 {
			bankMask = 1<<uint(bankLanes) - 1
		}
		ob.setSimInputs(bankLanes, bankMask)
		ss.sim.Run()
		ob.opt.Stats.SimPatterns(64)
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

// setSimInputs loads one round of patterns: free inputs at every frame
// inside the check's bound, plus the free initial registers of an
// induction session. Iteration follows the system's declaration order,
// keeping the random stream deterministic. bankLanes < 0 selects the
// structured state round: random inputs, lane-index register values.
func (ob *obligation) setSimInputs(bankLanes int, bankMask uint64) {
	ss := ob.ss
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
	for _, in := range ob.sys.Inputs {
		for p := 0; p < ob.bound; p++ {
			bv, ok := ss.fe.inputs[sigPos{in.Name, p}]
			if !ok {
				continue
			}
			if bankLanes > 0 {
				load(bv, func(w []uint64) { formal.LaneWords(ob.banked, bankLanes, in.Name, p, w) })
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
		for _, r := range ob.sys.Regs {
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
				load(bv, func(w []uint64) { formal.LaneWords(ob.banked, bankLanes, r.Name, 0, w) })
			default:
				load(bv, zero)
			}
		}
	}
}

// fingerprint serializes everything unrolling sys's registers reads:
// each register's width, reset value and next-state expression, every
// identifier those expressions reach — transitively through net
// definitions — with all the ways frameEnv and the expression evaluator
// may resolve it (declared width, input, register, constant, net), and
// every free input's name and width. Two systems with equal
// fingerprints unroll to the same frames over the same input vectors.
// cone holds the identifiers covered; a net outside it may differ
// between such systems. "" means an expression kind the serializer
// does not know; such systems share no session.
func fingerprint(sys *rtl.System) (fp string, cone map[string]bool) {
	w := fpWriter{seen: map[string]bool{}, ok: true}
	for _, in := range sys.Inputs {
		w.str("in", in.Name)
		w.num(int64(sys.Widths[in.Name]))
	}
	for _, r := range sys.Regs {
		w.str("reg", r.Name)
		w.num(int64(r.Width))
		w.unum(r.Init)
		w.expr(r.Next)
	}
	// w.names grows as net definitions reference further names.
	for i := 0; i < len(w.names); i++ {
		name := w.names[i]
		w.str("sig", name)
		width, declared := sys.Widths[name]
		_, isReg := sys.RegByName(name)
		c, isConst := sys.Consts[name]
		w.flag(declared)
		w.num(int64(width))
		w.flag(sys.IsInput(name))
		w.flag(isReg)
		w.flag(isConst)
		w.unum(c.Value)
		w.num(int64(c.Width))
		if net, ok := sys.NetByName(name); ok {
			w.str("net", "")
			w.num(int64(net.Width))
			w.expr(net.Expr)
		}
	}
	if !w.ok {
		return "", nil
	}
	return w.b.String(), w.seen
}

type fpWriter struct {
	b     strings.Builder
	names []string // identifiers in first-reference order
	seen  map[string]bool
	ok    bool
	buf   []byte
}

func (w *fpWriter) str(tag, s string) {
	w.b.WriteString(tag)
	w.b.WriteByte(':')
	w.buf = strconv.AppendQuote(w.buf[:0], s)
	w.b.Write(w.buf)
	w.b.WriteByte(' ')
}

func (w *fpWriter) num(n int64) {
	w.buf = strconv.AppendInt(w.buf[:0], n, 10)
	w.b.Write(w.buf)
	w.b.WriteByte(' ')
}

func (w *fpWriter) unum(n uint64) {
	w.buf = strconv.AppendUint(w.buf[:0], n, 10)
	w.b.Write(w.buf)
	w.b.WriteByte(' ')
}

func (w *fpWriter) flag(v bool) {
	if v {
		w.b.WriteString("1 ")
	} else {
		w.b.WriteString("0 ")
	}
}

// expr writes e in prefix form: a tag, the node's own fields, then its
// children, so distinct trees never serialize alike.
func (w *fpWriter) expr(e sva.Expr) {
	switch v := e.(type) {
	case nil:
		w.b.WriteString("nil ")
	case *sva.Ident:
		w.str("id", v.Name)
		if !w.seen[v.Name] {
			w.seen[v.Name] = true
			w.names = append(w.names, v.Name)
		}
	case *sva.Num:
		w.str("num", v.Text)
		w.unum(v.Value)
		w.num(int64(v.Width))
		w.flag(v.Fill)
	case *sva.Unary:
		w.str("un", v.Op)
		w.expr(v.X)
	case *sva.Binary:
		w.str("bin", v.Op)
		w.expr(v.X)
		w.expr(v.Y)
	case *sva.Cond:
		w.b.WriteString("cond ")
		w.expr(v.C)
		w.expr(v.T)
		w.expr(v.E)
	case *sva.Call:
		w.str("call", v.Name)
		w.num(int64(len(v.Args)))
		for _, a := range v.Args {
			w.expr(a)
		}
	case *sva.Concat:
		w.b.WriteString("cat ")
		w.num(int64(len(v.Parts)))
		for _, p := range v.Parts {
			w.expr(p)
		}
	case *sva.Repl:
		w.b.WriteString("repl ")
		w.expr(v.Count)
		w.expr(v.Value)
	case *sva.Index:
		w.b.WriteString("idx ")
		w.expr(v.X)
		w.expr(v.Idx)
	case *sva.Select:
		w.b.WriteString("sel ")
		w.expr(v.X)
		w.expr(v.Hi)
		w.expr(v.Lo)
	case *sva.WidthCast:
		w.b.WriteString("cast ")
		w.num(int64(v.W))
		w.expr(v.X)
	default:
		w.ok = false
	}
}
