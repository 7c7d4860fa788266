// Package equiv decides formal equivalence and implication between
// pairs of SVA assertions — the role played by the custom Cadence
// Jasper function in the paper's evaluation flow (§3.2). Signals are
// treated as unconstrained inputs of their declared widths; two
// assertions are compared per evaluation attempt over all infinite
// (ultimately periodic) traces.
//
// Verdicts mirror the paper's metrics: Equivalent feeds the Func
// metric; either implication direction additionally feeds the
// Partial-Func metric.
package equiv

import (
	"fmt"
	"sort"
	"time"

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/logic"
	"fveval/internal/ltl"
	"fveval/internal/obs"
	"fveval/internal/sat"
	"fveval/internal/sva"
)

// Verdict classifies a pair of assertions.
type Verdict int

// Verdict values.
const (
	Inequivalent Verdict = iota
	Equivalent
	AImpliesB // every trace satisfying A satisfies B
	BImpliesA
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case AImpliesB:
		return "A=>B"
	case BImpliesA:
		return "B=>A"
	}
	return "inequivalent"
}

// Sigs declares the signal environment both assertions are interpreted
// in: signal widths plus named constants (parameters).
type Sigs struct {
	Widths map[string]int
	Consts map[string]ltl.ConstVal
}

// Options tunes the checker.
type Options struct {
	// MaxBound caps the lasso length K the ramp may grow to
	// (0 = default 16).
	MaxBound int
	// Bound, when positive, forces the lasso length K exactly
	// (clamped to the formula depth + 1) and disables the ramp —
	// one solve at that bound; used by bound-sweep ablations.
	Bound int
	// Budget caps SAT conflicts per solver call (0 = unlimited): each
	// ramp step of each direction gets the full allowance, so the
	// authoritative final-bound solve keeps exactly the budget the
	// former one-shot check gave it.
	Budget int64
	// SimPatterns enables the bit-parallel simulation prefilter
	// (DESIGN.md §10): before each direction's SAT call, this many
	// random patterns (rounded up to 64-lane rounds, plus recycled
	// Bank patterns) are simulated over the violation cone, and a lane
	// satisfying it decides the direction — with the lane as the
	// witness — without opening the solver. 0 disables. The prefilter
	// is refute-only, so verdicts are identical either way (and the
	// knob is excluded from cache keys).
	SimPatterns int
	// Bank, when non-nil, supplies recycled counterexample patterns to
	// the prefilter and receives every SAT witness found here, so later
	// queries in the same run are refuted by earlier counterexamples.
	Bank *formal.Bank
	// Stats, when non-nil, receives solver-reuse and ramp counters.
	// It never affects verdicts (and is excluded from cache keys).
	Stats *formal.Stats
	// Span, when non-nil, is the traced parent span of this check:
	// every ramp step and prefilter decision records a child span under
	// it. Like Stats it never affects verdicts and is excluded from
	// cache keys; a nil Span makes every span call a no-op.
	Span *obs.Span
}

// Trace is a decoded counterexample: signal values per position with a
// loop back-edge from the last position to Loop.
type Trace struct {
	Loop    int
	Len     int
	Signals map[string][]uint64
}

// String renders the trace as a small table.
func (t *Trace) String() string {
	var names []string
	for n := range t.Signals {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("lasso: %d positions, loop->%d\n", t.Len, t.Loop)
	for _, n := range names {
		s += fmt.Sprintf("  %-16s", n)
		for _, v := range t.Signals[n] {
			s += fmt.Sprintf(" %d", v)
		}
		s += "\n"
	}
	return s
}

// Result reports the verdict with witnesses for the failed directions.
type Result struct {
	Verdict Verdict
	// AB is a witness trace satisfying A but not B (present when A
	// does not imply B); BA likewise.
	AB, BA *Trace
	// Bound is the largest lasso bound the checker actually solved at;
	// with the incremental ramp a witness trace may live at a smaller
	// bound, recorded in its own Len.
	Bound int
}

// Check decides the relationship between two assertions.
func Check(a, b *sva.Assertion, sigs *Sigs, opt Options) (Result, error) {
	// Clock compatibility: assertion equivalence is defined relative to
	// a common clocking event.
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

	// Reconcile disable-iff conditions (see DESIGN.md §4): equal
	// conditions reduce the comparison to abort-free traces; a missing
	// condition on one side can only weaken verdicts toward the
	// implication from the stronger (undisabled) assertion.
	condRel, err := disableRelation(a.DisableIff, b.DisableIff, sigs, opt)
	if err != nil {
		return Result{}, err
	}

	res, err := checkFormulas(fa, fb, sigs, opt)
	if err != nil {
		return Result{}, err
	}
	res.Verdict = combineDisable(res.Verdict, condRel)
	return res, nil
}

// CheckProperties compares two bare properties (no clocking or disable
// handling) — used by tests and the model checker.
func CheckProperties(pa, pb sva.Property, sigs *Sigs, opt Options) (Result, error) {
	fa, err := ltl.LowerProperty(pa)
	if err != nil {
		return Result{}, err
	}
	fb, err := ltl.LowerProperty(pb)
	if err != nil {
		return Result{}, err
	}
	return checkFormulas(fa, fb, sigs, opt)
}

// disable relation outcomes.
type disableRel int

const (
	disSame    disableRel = iota // both absent or provably equivalent
	disOnlyA                     // only A is disable-guarded
	disOnlyB                     // only B is disable-guarded
	disDiffers                   // both present but inequivalent
)

func disableRelation(da, db sva.Expr, sigs *Sigs, opt Options) (disableRel, error) {
	switch {
	case da == nil && db == nil:
		return disSame, nil
	case da != nil && db == nil:
		return disOnlyA, nil
	case da == nil && db != nil:
		return disOnlyB, nil
	}
	eq, err := boolExprEquivalent(da, db, sigs, opt)
	if err != nil {
		return disSame, err
	}
	if eq {
		return disSame, nil
	}
	return disDiffers, nil
}

// combineDisable folds the disable-iff relationship into the body
// verdict. With equal conditions the body verdict stands (aborted
// attempts satisfy both assertions identically). When only one side is
// guarded, the unguarded assertion is strictly stronger on aborting
// traces, so only implications from it survive.
func combineDisable(body Verdict, rel disableRel) Verdict {
	switch rel {
	case disSame:
		return body
	case disOnlyA:
		// B (unguarded) is stronger: B=>A can survive; A=>B cannot.
		if body == Equivalent || body == BImpliesA {
			return BImpliesA
		}
		return Inequivalent
	case disOnlyB:
		if body == Equivalent || body == AImpliesB {
			return AImpliesB
		}
		return Inequivalent
	}
	return Inequivalent
}

// boolExprEquivalent SAT-checks two boolean-layer expressions for
// functional equality over free signals.
func boolExprEquivalent(x, y sva.Expr, sigs *Sigs, opt Options) (bool, error) {
	b := logic.NewBuilder()
	env := ltl.NewTraceEnv(b, sigs.Widths, sigs.Consts)
	ev := &ltl.ExprEval{Ops: bitvec.Ops{B: b}, Env: env}
	nx, err := ev.Bool(x, 0)
	if err != nil {
		return false, err
	}
	ny, err := ev.Bool(y, 0)
	if err != nil {
		return false, err
	}
	diff := b.Xor(nx, ny)
	s := sat.New()
	if opt.Budget > 0 {
		s.SetBudget(opt.Budget)
	}
	cnf := logic.NewCNF(b, s)
	cnf.Assert(diff)
	satisfiable, err := s.Solve()
	if err != nil {
		return false, err
	}
	return !satisfiable, nil
}

func checkFormulas(fa, fb ltl.Formula, sigs *Sigs, opt Options) (Result, error) {
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
	if opt.Bound > 0 {
		k = opt.Bound
	}
	if k <= depth {
		k = depth + 1 // always give the formula room to evaluate
	}

	usesPast := ltl.UsesPast(fa) || ltl.UsesPast(fb)
	unbounded := ltl.HasUnbounded(fa) || ltl.HasUnbounded(fb)

	// Bound ramp: probe at the smallest bound the formulas can evaluate
	// at, then finish at the final bound k. A witness word found at a
	// small bound is representable at every larger one, and the last
	// ramp step poses exactly the fixed-bound query, so verdicts match
	// the one-shot check — small counterexamples just surface after far
	// less encoding and solving. Pure bounded-future pairs collapse
	// further: their truth depends only on positions 0..depth, so the
	// first evaluable bound already decides the query in one solve. A
	// forced Bound (ablations) skips the ramp entirely.
	var ks []int
	switch {
	case opt.Bound > 0:
		ks = []int{k}
	case !usesPast && !unbounded:
		ks = []int{depth + 1}
	default:
		ks = rampSchedule(depth+1, k)
	}

	abTrace, baTrace, solved, err := findWitnesses(fa, fb, sigs, ks, usesPast, unbounded, opt)
	if err != nil {
		return Result{}, err
	}

	res := Result{AB: abTrace, BA: baTrace, Bound: solved}
	switch {
	case abTrace == nil && baTrace == nil:
		res.Verdict = Equivalent
	case abTrace == nil:
		res.Verdict = AImpliesB
	case baTrace == nil:
		res.Verdict = BImpliesA
	default:
		res.Verdict = Inequivalent
	}
	return res, nil
}

// loopsFor picks the candidate loop positions at bound k. Pure
// bounded-future formulas are insensitive to the loop, one suffices;
// past references need a position to look back from.
func loopsFor(k int, usesPast, unbounded bool) []int {
	var loops []int
	switch {
	case !unbounded && !usesPast:
		loops = []int{k - 1}
	case usesPast:
		for l := 1; l < k; l++ {
			loops = append(loops, l)
		}
	default:
		for l := 0; l < k; l++ {
			loops = append(loops, l)
		}
	}
	return loops
}

// rampSchedule enumerates the bounds an incremental query visits: a
// probe at kMin (where small counterexamples live), then straight to
// kMax (so the final step poses the same query a one-shot fixed-bound
// check would). Queries here are construction-dominated, not
// conflict-dominated, so intermediate rungs would cost more encoding
// than they save in solving.
func rampSchedule(kMin, kMax int) []int {
	if kMin < 1 {
		kMin = 1
	}
	if kMin >= kMax {
		return []int{kMax}
	}
	return []int{kMin, kMax}
}

// direction tracks one implication direction's progress through the
// shared incremental session.
type direction struct {
	f, g  ltl.Formula // searching for a trace satisfying f, violating g
	trace *Trace
	done  bool
	early bool // decided before the final ramp bound

	solves, conflicts, learntKept int64
}

// findWitnesses searches for lasso traces separating the two formulas
// in both directions at once, ramping the lasso bound through ks on
// one persistent solver shared by the whole pair (see DESIGN.md §7).
// Both directions' violation circuits are built over one structurally
// hashed builder — their truth cones are the same two formulas — and
// each (direction, bound) constraint is gated behind its own
// activation literal: solved under assumption, retired on UNSAT. The
// solver's learnt clauses, variable activity, and the Tseitin
// encoding carry across bounds and directions. A nil trace means no
// witness up to the final bound (that direction's implication holds).
func findWitnesses(fa, fb ltl.Formula, sigs *Sigs, ks []int, usesPast, unbounded bool, opt Options) (*Trace, *Trace, int, error) {
	b := logic.NewBuilder()
	env := ltl.NewTraceEnv(b, sigs.Widths, sigs.Consts)
	ev := &ltl.ExprEval{Ops: bitvec.Ops{B: b}, Env: env}
	family := ltl.NewLassoFamily(ev)

	names := unionNames(fa, fb)

	s := sat.New()
	if opt.Budget > 0 {
		s.SetBudget(opt.Budget)
	}
	cnf := logic.NewCNF(b, s)
	dirs := [2]*direction{
		{f: fa, g: fb},
		{f: fb, g: fa},
	}
	var hashBase int64
	started := time.Now()
	report := func() {
		for _, dir := range dirs {
			opt.Stats.Query(dir.solves, dir.conflicts, dir.learntKept, dir.early)
		}
		opt.Stats.GatesShared(b.HashHits() - hashBase)
		opt.Stats.NodesEncoded(int64(cnf.Encoded()))
		opt.Stats.SolveWall(time.Since(started).Nanoseconds())
	}
	// Every exit — verdict, budget exhaustion, or elaboration error —
	// must account the session's solver work.
	fail := func(err error) (*Trace, *Trace, int, error) {
		report()
		return nil, nil, 0, err
	}

	var pf *simPrefilter
	if opt.SimPatterns > 0 {
		pf = newSimPrefilter(b, env, opt)
	}

	solved := 0
	for step, k := range ks {
		solved = k // reaching a step means at least one direction solves here
		loops := loopsFor(k, usesPast, unbounded)
		for di, dir := range dirs {
			if dir.done {
				continue
			}
			perLoop := make(map[int]logic.Node)
			total := logic.False
			for _, l := range loops {
				le := family.At(k, l)
				tf, err := le.Truth(dir.f, 0)
				if err != nil {
					return fail(err)
				}
				tg, err := le.Truth(dir.g, 0)
				if err != nil {
					return fail(err)
				}
				viol := b.And(tf, tg.Not())
				if usesPast && l >= 1 {
					// Seam consistency: past references at the loop entry
					// must agree between the first and repeated loop
					// traversals.
					viol = b.And(viol, seamConstraint(b, env, ev, names, l, k))
				}
				perLoop[l] = viol
				total = b.Or(total, viol)
			}
			if step == 0 && di == 0 {
				// Reuse below the first direction's first bound is
				// baseline circuit CSE, not incremental savings.
				hashBase = b.HashHits()
			}

			// Refute before solving: a simulation lane satisfying the
			// violation disjunction is a complete concrete witness at
			// this exact bound, so the SAT call it preempts could only
			// have returned the same verdict (DESIGN.md §10).
			if pf != nil {
				ssp := opt.Span.Child("sim").SetPhase(obs.PhaseSim).
					SetInt("bound", int64(k)).SetInt("dir", int64(di))
				lane, hit, fromBank := pf.refute(names, k, total)
				ssp.SetBool("refuted", hit).SetBool("bank_hit", fromBank)
				ssp.End()
				if hit {
					dir.trace = decodeTraceLane(pf.sim, lane, env, names, k, perLoop)
					dir.done = true
					dir.early = step < len(ks)-1
					opt.Stats.SimRefuted(fromBank, 1)
					continue
				}
			}

			rsp := opt.Span.Child("ramp").SetPhase(obs.PhaseSAT).
				SetInt("bound", int64(k)).SetInt("dir", int64(di))
			act := b.Input()
			cnf.AssertIf(act, total)

			pre := s.Stats()
			if pre.Solves > 0 {
				dir.learntKept += int64(pre.Learnt)
			}
			ok, model, err := s.SolveModel(cnf.Lit(act))
			post := s.Stats()
			dir.solves++
			dir.conflicts += post.Conflicts - pre.Conflicts
			if err != nil {
				rsp.SetStr("verdict", "error").End()
				return fail(err)
			}
			if ok {
				rsp.SetStr("verdict", "sat")
			} else {
				rsp.SetStr("verdict", "unsat")
			}
			rsp.End()
			if ok {
				dir.trace = decodeTrace(b, env, cnf, model, names, sigs, k, perLoop)
				dir.done = true
				dir.early = step < len(ks)-1
				// Counterexample-guided refinement: fold the witness into
				// the shared bank so later pairs can be refuted by it.
				bankTrace(opt.Bank, dir.trace)
			}
			// Retire the activation either way: a found witness ends this
			// direction, and an UNSAT bound's constraints must drop out
			// before the next one. Everything learnt stays.
			cnf.Retire(act)
		}
		if dirs[0].done && dirs[1].done {
			report()
			return dirs[0].trace, dirs[1].trace, solved, nil
		}
	}
	report()
	return dirs[0].trace, dirs[1].trace, solved, nil
}

func seamConstraint(b *logic.Builder, env *ltl.TraceEnv, ev *ltl.ExprEval, names []string, l, k int) logic.Node {
	acc := logic.True
	ops := bitvec.Ops{B: b}
	for _, n := range names {
		prev, err1 := env.Signal(n, l-1)
		last, err2 := env.Signal(n, k-1)
		if err1 != nil || err2 != nil {
			continue
		}
		acc = b.And(acc, ops.Eq(prev, last))
	}
	return acc
}

func unionNames(f, g ltl.Formula) []string {
	set := map[string]bool{}
	for _, n := range ltl.SignalNames(f) {
		set[n] = true
	}
	for _, n := range ltl.SignalNames(g) {
		set[n] = true
	}
	var out []string
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// decodeTrace decodes a SAT model into a witness trace: the model's
// input values are broadcast into a one-lane simulation of the dense
// evaluator (no maps, no recursion) and the trace reads off lane 0.
func decodeTrace(b *logic.Builder, env *ltl.TraceEnv, cnf *logic.CNF,
	model []bool, names []string, sigs *Sigs, k int, perLoop map[int]logic.Node) *Trace {

	sim := logic.NewSim(b)
	for _, n := range names {
		for pos := 0; pos < k; pos++ {
			if bv, ok := env.At(n, pos); ok {
				for _, bit := range bv.Bits {
					if !bit.IsConst() && cnf.InputValue(model, bit) {
						sim.SetInput(bit, ^uint64(0))
					}
				}
			}
		}
	}
	sim.Run()
	return decodeTraceLane(sim, 0, env, names, k, perLoop)
}

// decodeTraceLane reads one simulation lane off as a witness trace —
// the shared decode path of the SAT model decoder and the prefilter
// (whose hit lane is already a complete assignment).
func decodeTraceLane(sim *logic.Sim, lane int, env *ltl.TraceEnv,
	names []string, k int, perLoop map[int]logic.Node) *Trace {

	tr := &Trace{Loop: -1, Len: k, Signals: map[string][]uint64{}}
	for l, viol := range perLoop {
		if sim.Bit(viol, lane) {
			tr.Loop = l
			break
		}
	}
	for _, n := range names {
		vals := make([]uint64, k)
		for pos := 0; pos < k; pos++ {
			if bv, ok := env.At(n, pos); ok {
				var v uint64
				for i, bit := range bv.Bits {
					if i < 64 && sim.Bit(bit, lane) {
						v |= 1 << uint(i)
					}
				}
				vals[pos] = v
			}
		}
		tr.Signals[n] = vals
	}
	return tr
}

// bankTrace folds a decoded witness into the shared pattern bank
// (copying the values: banked patterns are read-only and the trace is
// cached alongside the verdict).
func bankTrace(bank *formal.Bank, t *Trace) {
	if bank == nil || t == nil {
		return
	}
	vals := make(map[string][]uint64, len(t.Signals))
	for n, vs := range t.Signals {
		vals[n] = append([]uint64(nil), vs...)
	}
	bank.Add(formal.Pattern{Len: t.Len, Vals: vals})
}

// ---- bit-parallel simulation prefilter (DESIGN.md §10) ------------------

// simPrefilter drives refute-before-solve for one findWitnesses
// session: one Sim over the session's shared builder, a snapshot of
// the run-wide pattern bank, and a deterministic random stream.
type simPrefilter struct {
	env     *ltl.TraceEnv
	sim     *logic.Sim
	lanes   int // random lanes to simulate per query
	banked  []formal.Pattern
	rng     uint64
	st      *formal.Stats
	scratch []uint64 // per-signal lane-word buffer, reused across rounds
}

func newSimPrefilter(b *logic.Builder, env *ltl.TraceEnv, opt Options) *simPrefilter {
	return &simPrefilter{
		env:    env,
		sim:    logic.NewSim(b),
		lanes:  opt.SimPatterns,
		banked: opt.Bank.Patterns(64),
		// Fixed seed: every session draws the same deterministic
		// stream, keeping stats and witness traces reproducible.
		rng: 0x5eed5eed5eed5eed,
		st:  opt.Stats,
	}
}

// refute simulates banked + random patterns over the violation
// disjunction at bound k. A true lane is a complete concrete witness;
// the caller decodes it from the still-warm Sim. Missing is not a
// verdict — the SAT path runs as before.
func (pf *simPrefilter) refute(names []string, k int, total logic.Node) (int, bool, bool) {
	if total == logic.False {
		// Constant-folded to unsatisfiable: nothing to refute.
		return 0, false, false
	}
	remaining := pf.lanes
	for round := 0; remaining > 0 || (round == 0 && len(pf.banked) > 0); round++ {
		bankLanes := 0
		if round == 0 {
			bankLanes = len(pf.banked)
		}
		bankMask := ^uint64(0)
		if bankLanes < 64 {
			bankMask = 1<<uint(bankLanes) - 1
		}
		for _, name := range names {
			for pos := 0; pos < k; pos++ {
				bv, ok := pf.env.At(name, pos)
				if !ok {
					continue
				}
				if cap(pf.scratch) < len(bv.Bits) {
					pf.scratch = make([]uint64, len(bv.Bits))
				}
				words := pf.scratch[:len(bv.Bits)]
				if bankLanes > 0 {
					formal.LaneWords(pf.banked, bankLanes, name, pos, words)
				} else {
					for i := range words {
						words[i] = 0
					}
				}
				for i, bit := range bv.Bits {
					if bit.IsConst() {
						continue
					}
					pf.sim.SetInput(bit, words[i]|formal.SplitMix64(&pf.rng)&^bankMask)
				}
			}
		}
		pf.sim.Run()
		pf.st.SimPatterns(64)
		remaining -= 64 - bankLanes
		if lane, ok := pf.sim.FirstLane(total); ok {
			return lane, true, lane < bankLanes
		}
	}
	return 0, false, false
}

// DefaultMachineSigs is the symbolic signal environment of the
// NL2SVA-Machine benchmark: sig_A..sig_J where a subset are multi-bit
// vectors (so reduction operators and $countones are meaningful).
func DefaultMachineSigs() *Sigs {
	w := map[string]int{
		"clk":      1,
		"tb_reset": 1,
		"sig_A":    4,
		"sig_B":    4,
		"sig_C":    4,
		"sig_D":    1,
		"sig_E":    1,
		"sig_F":    1,
		"sig_G":    4,
		"sig_H":    4,
		"sig_I":    1,
		"sig_J":    1,
	}
	return &Sigs{Widths: w, Consts: map[string]ltl.ConstVal{}}
}
