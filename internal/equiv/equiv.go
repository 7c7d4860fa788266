// Package equiv decides formal equivalence and implication between
// pairs of SVA assertions — the role played by the custom Cadence
// Jasper function in the paper's evaluation flow (§3.2). Signals are
// treated as unconstrained inputs of their declared widths; two
// assertions are compared per evaluation attempt over all infinite
// (ultimately periodic) traces. Equivalence checking is model checking
// over a stateless environment (ltl.TraceEnv: every signal a free
// input at every position), so each Check runs on the same
// bounded-search core as package mc: the disable-iff comparison and
// the two implication directions are obligations on one
// formal.Session.
//
// Verdicts mirror the paper's metrics: Equivalent feeds the Func
// metric; either implication direction additionally feeds the
// Partial-Func metric.
package equiv

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/logic"
	"fveval/internal/ltl"
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

// Options tunes the checker. The embedded formal.Search carries the
// conflict budget (each ramp step of each direction gets the full
// allowance, so the final-bound solve keeps the budget a one-shot
// check would give it), the simulation prefilter (run over each
// direction's violation cone before its solve; a satisfying lane is
// the direction's witness), the pattern bank and the run-wide sinks.
// None of them affects a verdict, and the cache keys only the budget.
type Options struct {
	// MaxBound caps the lasso length K the ramp may grow to
	// (0 = default 16).
	MaxBound int
	formal.Search
}

// Trace is a decoded counterexample: signal values per position with a
// loop back-edge from the last position to Loop. Signals may share
// storage with the run's pattern bank: read-only.
type Trace struct {
	Loop    int
	Len     int
	Signals map[string][]uint64
}

// String renders the trace as a small table: one row per signal, in
// name order.
func (t *Trace) String() string {
	var b strings.Builder
	var num [20]byte
	fmt.Fprintf(&b, "lasso: %d positions, loop->%d\n", t.Len, t.Loop)
	for _, n := range slices.Sorted(maps.Keys(t.Signals)) {
		fmt.Fprintf(&b, "  %-16s", n)
		for _, v := range t.Signals[n] {
			b.WriteByte(' ')
			b.Write(strconv.AppendUint(num[:0], v, 10))
		}
		b.WriteByte('\n')
	}
	return b.String()
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

// Check decides the relationship between two assertions. Everything
// it solves — the disable-iff comparison and both implication
// directions — runs as obligations on one session over a trace
// environment where every signal is a free input at every position.
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

	started := time.Now()
	defer func() { opt.Stats.SolveWall(time.Since(started).Nanoseconds()) }()
	q := newQuery(sigs, opt)

	// Reconcile disable-iff conditions (see DESIGN.md §4): equal
	// conditions reduce the comparison to abort-free traces; a missing
	// condition on one side can only weaken verdicts toward the
	// implication from the stronger (undisabled) assertion.
	condRel, err := q.disableRelation(a.DisableIff, b.DisableIff)
	if err != nil {
		return Result{}, err
	}

	res, err := q.checkFormulas(fa, fb)
	if err != nil {
		return Result{}, err
	}
	res.Verdict = combineDisable(res.Verdict, condRel)
	return res, nil
}

// query is one Check's session: a stateless trace environment over the
// session's builder.
type query struct {
	ss  *formal.Session
	env *ltl.TraceEnv
	ev  *ltl.ExprEval
	opt Options

	cols []formal.Column // columns' buffer, reused across queries
}

func newQuery(sigs *Sigs, opt Options) *query {
	ss := formal.NewSession()
	env := ltl.NewTraceEnv(ss.B, sigs.Widths, sigs.Consts)
	return &query{ss: ss, env: env, ev: &ltl.ExprEval{Ops: bitvec.Ops{B: ss.B}, Env: env}, opt: opt}
}

// disable relation outcomes.
type disableRel int

const (
	disSame    disableRel = iota // both absent or provably equivalent
	disOnlyA                     // only A is disable-guarded
	disOnlyB                     // only B is disable-guarded
	disDiffers                   // both present but inequivalent
)

func (q *query) disableRelation(da, db sva.Expr) (disableRel, error) {
	switch {
	case da == nil && db == nil:
		return disSame, nil
	case da != nil && db == nil:
		return disOnlyA, nil
	case da == nil && db != nil:
		return disOnlyB, nil
	}
	eq, err := q.boolExprEquivalent(da, db)
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

// boolExprEquivalent decides functional equality of two boolean-layer
// expressions over free signals: one obligation, one query for their
// difference at position 0. A difference that folds to constant false
// (the same condition on both sides, up to structural hashing) needs
// no query.
func (q *query) boolExprEquivalent(x, y sva.Expr) (bool, error) {
	nx, err := q.ev.Bool(x, 0)
	if err != nil {
		return false, err
	}
	ny, err := q.ev.Bool(y, 0)
	if err != nil {
		return false, err
	}
	diff := q.ss.B.Xor(nx, ny)
	if diff == logic.False {
		return true, nil
	}
	ob := q.ss.Open(q.opt.Search)
	cols := q.columns(unionNames(&ltl.FAtom{E: x}, &ltl.FAtom{E: y}), 1)
	differ, _, err := ob.Find("ramp", 1, cols, nil, false, diff)
	ob.Close(false)
	return differ < 0, err
}

func (q *query) checkFormulas(fa, fb ltl.Formula) (Result, error) {
	opt := q.opt
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
	// first evaluable bound already decides the query in one solve.
	ks := []int{depth + 1}
	if usesPast || unbounded {
		ks = rampSchedule(depth+1, k)
	}

	return q.findWitnesses(fa, fb, ks, usesPast, unbounded)
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

// direction is one implication direction: an obligation searching for
// a trace satisfying f and violating g.
type direction struct {
	f, g  ltl.Formula
	ob    *formal.Obligation
	trace *Trace
	early bool // decided before the final ramp bound
}

// findWitnesses searches for lasso traces separating the two formulas
// in both directions at once, ramping the lasso bound through ks on the
// query's session (see DESIGN.md §7). Both directions' violation
// circuits share the structurally hashed builder — their truth cones
// are the same two formulas — and each direction is an obligation that
// assumes its violation at each bound, so nothing one bound solves
// outlives it while the learnt clauses, variable activity and the
// Tseitin encoding carry across bounds and directions. A nil trace
// means no witness up to the final bound (that direction's implication
// holds).
func (q *query) findWitnesses(fa, fb ltl.Formula, ks []int, usesPast, unbounded bool) (Result, error) {
	family := ltl.NewLassoFamily(q.ev)
	names := unionNames(fa, fb)
	b := q.ss.B
	dirs := [2]*direction{
		{f: fa, g: fb, ob: q.ss.Open(q.opt.Search)},
		{f: fb, g: fa, ob: q.ss.Open(q.opt.Search)},
	}
	// Every exit — verdict, budget exhaustion, or elaboration error —
	// must account the session's solver work.
	defer func() {
		for _, dir := range dirs {
			dir.ob.Close(dir.early)
		}
	}()

	solved := 0
	for step, k := range ks {
		solved = k // reaching a step means at least one direction solves here
		loops := loopsFor(k, usesPast, unbounded)
		perLoop := make([]logic.Node, len(loops))
		for _, dir := range dirs {
			if dir.trace != nil {
				continue
			}
			for i, l := range loops {
				le := family.At(k, l)
				tf, err := le.Truth(dir.f, 0)
				if err != nil {
					return Result{}, err
				}
				tg, err := le.Truth(dir.g, 0)
				if err != nil {
					return Result{}, err
				}
				viol := b.And(tf, tg.Not())
				if usesPast && l >= 1 {
					// Seam consistency: past references at the loop entry
					// must agree between the first and repeated loop
					// traversals.
					viol = b.And(viol, q.seamConstraint(names, l, k))
				}
				perLoop[i] = viol
			}
			// A prefilter lane satisfying a violation is a complete
			// concrete witness at this exact bound, so the SAT call it
			// preempts could only have returned the same verdict
			// (DESIGN.md §10). A SAT model also goes into the bank, so
			// later pairs can be refuted by it.
			i, w, err := dir.ob.Find("ramp", k, q.columns(names, k), nil, true, perLoop...)
			if err != nil {
				return Result{}, err
			}
			if i < 0 {
				continue
			}
			dir.trace = &Trace{Loop: loops[i], Len: k, Signals: w.Vals}
			dir.early = step < len(ks)-1
		}
		if dirs[0].trace != nil && dirs[1].trace != nil {
			break
		}
	}
	res := Result{AB: dirs[0].trace, BA: dirs[1].trace, Bound: solved}
	switch {
	case res.AB == nil && res.BA == nil:
		res.Verdict = Equivalent
	case res.AB == nil:
		res.Verdict = AImpliesB
	case res.BA == nil:
		res.Verdict = BImpliesA
	default:
		res.Verdict = Inequivalent
	}
	return res, nil
}

// columns lists every signal of the pair at every position below k:
// the prefilter's inputs and the witness's values (positions the
// formulas never read stay zero). The slice is valid until the next
// call.
func (q *query) columns(names []string, k int) []formal.Column {
	cols := q.cols[:0]
	for _, n := range names {
		for pos := 0; pos < k; pos++ {
			bv, _ := q.env.At(n, pos)
			cols = append(cols, formal.Column{Name: n, Pos: pos, Bits: bv.Bits})
		}
	}
	q.cols = cols
	return cols
}

func (q *query) seamConstraint(names []string, l, k int) logic.Node {
	acc := logic.True
	for _, n := range names {
		prev, err1 := q.env.Signal(n, l-1)
		last, err2 := q.env.Signal(n, k-1)
		if err1 != nil || err2 != nil {
			continue
		}
		acc = q.ev.Ops.B.And(acc, q.ev.Ops.Eq(prev, last))
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
