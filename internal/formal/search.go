package formal

import (
	"slices"

	"fveval/internal/logic"
	"fveval/internal/obs"
	"fveval/internal/sat"
)

// Search is the part of a checker's options the bounded-search core
// reads. equiv.Options and mc.Options embed it, so one run fills it
// once for both checkers. None of its fields affects a verdict.
type Search struct {
	// Budget caps SAT conflicts per solver call (0 = unlimited): every
	// bound and depth of a check gets the full allowance.
	Budget int64
	// SimPatterns enables the bit-parallel simulation prefilter
	// (DESIGN.md §10): before each solve, this many random patterns
	// (in 64-lane rounds, plus recycled Bank patterns) are simulated,
	// and a lane satisfying the query decides it without the solver.
	// 0 disables. Refute-only, so verdicts are identical either way.
	SimPatterns int
	// Bank, when non-nil, supplies recycled counterexample patterns to
	// the prefilter and receives every SAT model a check decodes.
	Bank *Bank
	// Stats, when non-nil, receives the per-check solver counters.
	Stats *Stats
	// Span, when non-nil, is the traced parent span of the check:
	// every prefilter round and solver call records a child under it.
	Span *obs.Span
}

// Session is one incrementally grown circuit and everything that
// searches it: the structurally hashed builder, its CNF encoding and
// SAT solver, the prefilter's simulator (built by the first check that
// asks for it) and its deterministic random stream. A session outlives
// the checks opened on it, so later checks inherit the encoding and
// the learnt clauses of earlier ones. Not safe for concurrent use.
type Session struct {
	B   *logic.Builder
	CNF *logic.CNF

	sim     *logic.Sim
	dec     *logic.Sim // one-lane simulator that decodes SAT models
	rng     uint64
	scratch []uint64   // per-column lane-word buffer, reused across rounds
	rows    [][]uint64 // banked values of the column signal being loaded

	// Builder hash hits and CNF nodes already reported by a closed
	// check: two checks open at once share one delta.
	hashSent int64
	encSent  int
}

// NewSession returns an empty session.
func NewSession() *Session {
	b := logic.NewBuilder()
	return &Session{
		B: b, CNF: logic.NewCNF(b, sat.New()),
		// Fixed seed: every session draws the same deterministic stream,
		// keeping stats and witness traces reproducible.
		rng: 0x5eed5eed5eed5eed,
	}
}

// Column is one signal's bits at one trace position: a free input the
// prefilter assigns, or a value a witness reports.
type Column struct {
	Name string
	Pos  int
	Bits []logic.Node
	// Init marks a free initial register. A query whose columns carry
	// one opens with a structured round: lane j holds the value j,
	// sweeping all 64 low state encodings at once — for the
	// benchmark's FSM and shallow-pipeline designs this covers the
	// entire state space, where uniform random states almost never
	// land on a valid encoding.
	Init bool
}

// Obligation is one check's claim on a session: its path constraints
// gated behind an activation literal, and its share of the session's
// work. Nothing a check asserts outlives its Close ungated.
type Obligation struct {
	ss  *Session
	opt Search

	// act gates every path constraint; gated reports that one reached
	// the CNF, so act must be assumed and, at Close, retired.
	act   logic.Node
	gated bool
	// Path constraints are flushed into the CNF only right before a
	// solver call, so a check the prefilter fully discharges never pays
	// for their encoding. conj is the running conjunction the simulator
	// sees; pending holds the suffix the solver has not seen yet.
	conj    logic.Node
	pending []logic.Node

	solves, conflicts, props, learntKept, hashMark int64
	encMark                                        int
}

// Open starts a check on the session.
func (ss *Session) Open(opt Search) *Obligation {
	ss.CNF.Solver().SetBudget(opt.Budget)
	if opt.SimPatterns > 0 && ss.sim == nil {
		ss.sim = logic.NewSim(ss.B)
	}
	return &Obligation{
		ss: ss, opt: opt,
		act:      ss.B.Input(),
		conj:     logic.True,
		hashMark: ss.B.HashHits(),
		encMark:  ss.CNF.Encoded(),
	}
}

// Constrain adds a path constraint: visible to the prefilter at once,
// asserted under the check's literal at the next solve.
func (ob *Obligation) Constrain(n logic.Node) {
	ob.conj = ob.ss.B.And(ob.conj, n)
	ob.pending = append(ob.pending, n)
}

// solve asks the solver whether v is satisfiable under the check's
// path constraints, recording a span named name at bound. v is passed
// as an assumption, so nothing of one query outlives its call.
func (ob *Obligation) solve(name string, bound int, v logic.Node) (bool, []bool, error) {
	ss := ob.ss
	sp := ob.opt.Span.Child(name).SetPhase(obs.PhaseSAT).SetInt("bound", int64(bound))
	for _, n := range ob.pending {
		ss.CNF.AssertIf(ob.act, n)
		ob.gated = true
	}
	ob.pending = ob.pending[:0]
	var assume []sat.Lit
	if ob.gated {
		assume = append(assume, ss.CNF.Lit(ob.act))
	}
	assume = append(assume, ss.CNF.Lit(v))
	s := ss.CNF.Solver()
	pre := s.Stats()
	if pre.Solves > 0 {
		ob.learntKept += int64(pre.Learnt)
	}
	ok, model, err := s.Solve(assume...)
	post := s.Stats()
	ob.solves++
	ob.conflicts += post.Conflicts - pre.Conflicts
	ob.props += post.Propagations - pre.Propagations
	switch {
	case err != nil:
		sp.SetStr("verdict", "error")
	case ok:
		sp.SetStr("verdict", "sat")
	default:
		sp.SetStr("verdict", "unsat")
	}
	sp.End()
	return ok, model, err
}

// Propagations reports the solver propagations of the check's solver
// calls so far: its search work, deterministic for a given session
// history, unlike wall time.
func (ob *Obligation) Propagations() int64 { return ob.props }

// Find answers one query of the check: does a trace satisfying one of
// targets exist under the check's path constraints? The prefilter
// first simulates banked and random patterns over cols (a span named
// "sim"); a lane satisfying the query is a complete concrete witness,
// so on a hit the solver is not asked. On a miss the solver decides (a
// span named name). Both spans carry bound. Targets are assumptions,
// never asserted, so nothing of one query outlives its call.
//
// Find returns -1 when no trace exists. Otherwise it returns the index
// of the first target the trace satisfies and, with keep, the trace
// decoded over the columns trace returns, as many positions long as it
// says (a nil trace means cols, bound positions long). trace is called
// only to decode. A SAT model is decoded into the bank whether or not
// it is kept; a prefilter lane is decoded only when kept, so a caller
// that wants no trace pays nothing for a hit.
func (ob *Obligation) Find(name string, bound int, cols []Column, trace func() ([]Column, int), keep bool, targets ...logic.Node) (int, Pattern, error) {
	ss := ob.ss
	v := logic.False
	for _, t := range targets {
		v = ss.B.Or(v, t)
	}
	lane, hit := 0, false
	if ob.opt.SimPatterns > 0 {
		sp := ob.opt.Span.Child("sim").SetPhase(obs.PhaseSim).SetInt("bound", int64(bound))
		var fromBank bool
		lane, hit, fromBank = ob.refute(v, cols)
		sp.SetBool("refuted", hit).SetBool("bank_hit", fromBank).End()
		if hit {
			ob.opt.Stats.SimRefuted(fromBank)
		}
	}
	sim := ss.sim
	if !hit {
		ok, model, err := ob.solve(name, bound, v)
		if err != nil || !ok {
			return -1, Pattern{}, err
		}
		if !keep && ob.opt.Bank == nil && len(targets) == 1 {
			return 0, Pattern{}, nil
		}
		if trace != nil {
			cols, bound = trace()
		}
		sim, lane = ss.replay(model, cols), 0
	}
	// The trace satisfies the targets' disjunction: when every other
	// target fails, the last holds.
	i := 0
	for i < len(targets)-1 && !sim.Bit(targets[i], lane) {
		i++
	}
	if hit && !keep {
		return i, Pattern{}, nil
	}
	if hit && trace != nil {
		cols, bound = trace()
	}
	p := read(sim, lane, cols, bound)
	if !hit {
		ob.opt.Bank.Add(p)
	}
	return i, p, nil
}

// refute simulates banked and random patterns over cols, looking for a
// lane that satisfies v and the check's path constraints; a miss is not
// a verdict.
func (ob *Obligation) refute(v logic.Node, cols []Column) (lane int, hit, fromBank bool) {
	ss := ob.ss
	target := ss.B.And(v, ob.conj)
	if target == logic.False {
		return 0, false, false
	}
	// Refresh the bank snapshot per query: models found earlier in this
	// very check (or by its sibling) best predict the next refutation.
	banked := ob.opt.Bank.Patterns(64)
	round := func(bankLanes int, sweep bool) (int, bool) {
		ss.load(cols, banked, bankLanes, sweep)
		ss.sim.Run()
		ob.opt.Stats.SimPatterns(64)
		return ss.sim.FirstLane(target)
	}
	if slices.ContainsFunc(cols, func(c Column) bool { return c.Init }) {
		if lane, ok := round(0, true); ok {
			return lane, true, false
		}
	}
	remaining := ob.opt.SimPatterns
	for r := 0; remaining > 0 || (r == 0 && len(banked) > 0); r++ {
		bankLanes := 0
		if r == 0 {
			bankLanes = len(banked)
		}
		remaining -= 64 - bankLanes
		if lane, ok := round(bankLanes, false); ok {
			return lane, true, lane < bankLanes
		}
	}
	return 0, false, false
}

// laneIndexMasks[i] holds bit i of the lane number in every lane:
// loading them into a register's low bits makes lane j's value j.
var laneIndexMasks = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// load assigns one round of patterns to the columns, in order: lanes
// below bankLanes replay the banked patterns, the rest draw from the
// random stream; in a sweep round Init columns take the lane index.
func (ss *Session) load(cols []Column, banked []Pattern, bankLanes int, sweep bool) {
	bankMask := ^uint64(0)
	if bankLanes < 64 {
		bankMask = 1<<uint(bankLanes) - 1
	}
	rowsOf := "" // the signal ss.rows holds; no column is named ""
	for _, c := range cols {
		if sweep && c.Init {
			for i, bit := range c.Bits {
				if bit.IsConst() {
					continue
				}
				w := uint64(0)
				if i < len(laneIndexMasks) {
					w = laneIndexMasks[i]
				}
				ss.sim.SetInput(bit, w)
			}
			continue
		}
		if cap(ss.scratch) < len(c.Bits) {
			ss.scratch = make([]uint64, len(c.Bits))
		}
		words := ss.scratch[:len(c.Bits)]
		if c.Name != rowsOf {
			// Columns come signal by signal, so one lookup per pattern
			// serves all of a signal's positions.
			ss.rows, rowsOf = signalRows(banked, bankLanes, c.Name, ss.rows), c.Name
		}
		laneWords(ss.rows, c.Pos, words)
		for i, bit := range c.Bits {
			if bit.IsConst() {
				continue
			}
			ss.sim.SetInput(bit, words[i]|splitMix64(&ss.rng)&^bankMask)
		}
	}
}

// replay broadcasts a SAT model's values of the input bits among cols
// into the session's one-lane decoding simulator, which recomputes
// every derived node from them.
func (ss *Session) replay(model []bool, cols []Column) *logic.Sim {
	if ss.dec == nil {
		ss.dec = logic.NewSim(ss.B)
	}
	sim := ss.dec
	sim.Reset()
	for _, c := range cols {
		for _, bit := range c.Bits {
			if !bit.IsConst() && ss.B.IsInput(bit) && ss.CNF.InputValue(model, bit) != bit.Compl() {
				sim.SetInput(bit, ^uint64(0))
			}
		}
	}
	sim.Run()
	return sim
}

// read lays one simulator lane out as a signal-level Pattern over cols,
// n positions long.
func read(sim *logic.Sim, lane int, cols []Column, n int) Pattern {
	p := Pattern{Len: n, Vals: map[string][]uint64{}}
	for _, c := range cols {
		vals := p.Vals[c.Name]
		if vals == nil {
			vals = make([]uint64, n)
			p.Vals[c.Name] = vals
		}
		var v uint64
		for i, bit := range c.Bits {
			if i < 64 && sim.Bit(bit, lane) {
				v |= 1 << uint(i)
			}
		}
		vals[c.Pos] = v
	}
	return p
}

// Close ends the check: it retires the activation literal and reports
// the check's solver counters, plus the session's new shared gates and
// encoded nodes since the last check that closed on it.
func (ob *Obligation) Close(early bool) {
	ss := ob.ss
	if ob.gated {
		ss.CNF.Retire(ob.act)
	}
	hits, enc := ss.B.HashHits(), ss.CNF.Encoded()
	ob.opt.Stats.query(ob.solves, ob.conflicts, ob.learntKept,
		hits-max(ob.hashMark, ss.hashSent), int64(enc-max(ob.encMark, ss.encSent)), early)
	ss.hashSent, ss.encSent = hits, enc
}
