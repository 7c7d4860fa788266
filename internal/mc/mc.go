// Package mc model-checks SVA assertions against elaborated RTL — the
// role of the commercial tool's proof engines in the paper's
// Design2SVA evaluation. Safety properties are falsified with bounded
// model checking and proven with k-induction; liveness properties are
// falsified with lasso-shaped bounded search. Every check returns a
// formal.Verdict; one that holds only up to a bound says so in its
// Reason (formal.Bound): a liveness check with no lasso counterexample
// within the bound is Proven, Bound; a safety check neither proved nor
// falsified within its depths is Undecided, Bound.
//
// Every check runs on the bounded-search core of package formal
// (DESIGN.md §7): a Design keeps two formal sessions per transition
// relation — the base session unrolled from reset, serving BMC depths,
// liveness lassos and covers, and the step session from a free state,
// serving k-induction — and each check is one obligation per session
// it touches, its constraints gated behind its activation literal. The
// unroll, learnt clauses and Tseitin encoding are paid for once per
// design rather than once per assertion, and the unroll builds only the
// (register, frame) pairs some query reads. A safety check lets its
// BMC base cases run ahead of its induction steps while they have cost
// less solver work, with the verdicts of the lockstep schedule.
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

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/logic"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// Cex is a counterexample: per-frame values of inputs and registers.
// A frame holds only the pairs the checker built: an input the
// property never read at that frame, or a register outside the cone of
// every query its session answered up to then, has no entry. Every
// entry is a value of one concrete trace that violates the property.
type Cex struct {
	Frames []map[string]uint64
	Loop   int // loop entry frame of a lasso; -1 for finite (safety) traces
}

// Result of checking one assertion: the verdict and, for a falsified
// check or a reached cover, its trace. A safety verdict's Depth is the
// induction length of a proof, the first failing BMC depth of a
// counterexample found within MaxInduction, or BMCDepth past it and
// for an undecided check; it does not depend on how far the base case
// ran ahead of the induction steps. A liveness verdict's Depth is the
// lasso length, a cover's the BMC depth searched.
type Result struct {
	formal.Verdict
	// Cex is the counterexample of a falsified check, or a cover's
	// witness.
	Cex *Cex
}

// Options tunes the checker. The embedded formal.Search carries the
// conflict budget, the simulation prefilter and the run-wide sinks;
// the prefilter runs before each BMC depth, induction step, lasso and
// cover solve, and a satisfying lane discharges the query without the
// solver (as a counterexample, a step refutation or a cover witness).
type Options struct {
	MaxInduction int // max k for k-induction (default 10)
	BMCDepth     int // plain BMC falsification depth (default 16)
	formal.Search
}

// lassoBound is the lasso length liveness checks search up to (raised
// to the property's depth + 3).
const lassoBound = 10

func (o Options) withDefaults() Options {
	if o.MaxInduction == 0 {
		o.MaxInduction = 10
	}
	if o.BMCDepth == 0 {
		o.BMCDepth = 16
	}
	return o
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

// frameEnv implements ltl.Env over an unrolled transition system.
// Registers are unrolled on demand: unroll only raises the frame
// horizon, and a (register, frame) pair is built the first time a
// check reads it, so a query pays for the registers in its cone.
type frameEnv struct {
	b   *logic.Builder
	sys *rtl.System
	ev  *ltl.ExprEval

	inputs map[sigPos]bitvec.BV
	states map[sigPos]bitvec.BV // built (register, frame) pairs
	nets   map[sigPos]bitvec.BV
	own    []sigPos // cached nets of sys's own, not of its base
	busy   map[sigPos]bool
	frames int // register frame horizon (frame 0 by initFrame0)
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

// unroll raises the register horizon to frame n (exclusive). The
// first call past frame 0 builds every register's next state at frame
// 1, committing the frame only once all of them evaluate, so an error
// in next-state logic surfaces whatever a check reads. Later frames are
// built by Signal, pair by pair, as checks read them: the next-state
// logic is the same expression at every frame, so it does not fail
// there where it evaluated at frame 1.
func (fe *frameEnv) unroll(n int) error {
	if n <= fe.frames {
		return nil
	}
	if fe.frames == 1 {
		next := make([]bitvec.BV, len(fe.sys.Regs))
		for i, r := range fe.sys.Regs {
			v, err := fe.ev.Eval(r.Next, 0)
			if err != nil {
				return err
			}
			next[i] = v.Extend(r.Width)
		}
		for i, r := range fe.sys.Regs {
			fe.states[sigPos{r.Name, 1}] = next[i]
		}
	}
	fe.frames = n
	return nil
}

// rebind points the environment at sys, a system with the same base as
// the one it was unrolling (DESIGN.md §7), and reports whether sys is
// a different system. Registers, inputs and the base's nets resolve
// identically under both; cached nets of the old system's own are
// dropped, so a helper net the new system defines differently is
// evaluated afresh. The expression memos go too: they are keyed by
// expression identity, and two systems may share an expression (one
// parsed assertion checked against both) whose value differs between
// them.
func (fe *frameEnv) rebind(sys *rtl.System) bool {
	if fe.sys == sys {
		return false
	}
	fe.sys = sys
	for _, key := range fe.own {
		delete(fe.nets, key)
	}
	fe.own = fe.own[:0]
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
	if r, isReg := fe.sys.RegByName(name); isReg {
		if pos < 1 || pos >= fe.frames {
			// register value requested beyond the unrolled range
			return bitvec.BV{}, &ltl.ElabError{Reason: fmt.Sprintf("register %s not unrolled at %d", name, pos)}
		}
		v, err := fe.ev.Eval(r.Next, pos-1)
		if err != nil {
			return bitvec.BV{}, err
		}
		v = v.Extend(r.Width)
		fe.states[key] = v
		return v, nil
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
		if _, shared := fe.sys.Base().NetByName(name); !shared {
			fe.own = append(fe.own, key)
		}
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
			for _, j := range le.Reach(p) {
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

// cexOf lays a decoded witness out frame by frame: one value per
// column, so a (register, frame) pair the unroll never built is left
// out rather than reported as zero.
func cexOf(p formal.Pattern, cols []formal.Column) *Cex {
	cex := &Cex{Loop: -1, Frames: make([]map[string]uint64, p.Len)}
	for i := range cex.Frames {
		cex.Frames[i] = map[string]uint64{}
	}
	for _, c := range cols {
		cex.Frames[c.Pos][c.Name] = p.Vals[c.Name][c.Pos]
	}
	return cex
}
