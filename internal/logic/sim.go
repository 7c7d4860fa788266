// Bit-parallel circuit simulation. A Sim evaluates every node of a
// Builder's DAG 64 patterns at a time over a dense []uint64 value
// slice — one word per node, one pattern per bit lane, no maps and no
// per-node dispatch. Node indices are topological by construction (a
// gate only ever references already-allocated nodes), so a full
// evaluation is a single linear pass of AND/NOT word operations.
//
// The formal backend uses Sim as a refute-before-solve prefilter
// (DESIGN.md §10): random and recycled counterexample patterns are
// simulated over the violation cone before any SAT call, and a lane
// that satisfies the cone is a complete concrete witness — the solver
// is skipped entirely. The same machinery, run one lane wide, backs
// Builder.Eval and the counterexample decoders.
package logic

import (
	"math/bits"
	"slices"
)

// Sim is a 64-lane bit-parallel evaluator over one Builder. The
// builder may keep growing between runs: Run always evaluates the
// current node table, and the value slice grows with it. A Sim is not
// safe for concurrent use.
type Sim struct {
	b    *Builder
	vals []uint64 // per node index; bit j = lane j's value
}

// NewSim creates an evaluator for the builder's circuit.
func NewSim(b *Builder) *Sim { return &Sim{b: b} }

// grow sizes the value slice to the builder's current node table, in
// at most one allocation. Words past the old length are zero: the
// slice never shrinks, so nothing has written them.
func (s *Sim) grow() {
	if n := len(s.b.gates); len(s.vals) < n {
		s.vals = slices.Grow(s.vals, n-len(s.vals))[:n]
	}
}

// Reset zeroes every input word, as in a new Sim.
func (s *Sim) Reset() { clear(s.vals) }

// SetInput assigns the 64-lane word of an input node (non-complemented
// form). Inputs never assigned hold zero in every lane.
func (s *Sim) SetInput(n Node, w uint64) {
	s.grow()
	s.vals[n.index()] = w
}

// Run evaluates every gate of the circuit in one linear pass over the
// dense value slice. Input words must be set (or left zero) first;
// gate results overwrite whatever a previous Run left behind.
func (s *Sim) Run() {
	s.grow()
	gates := s.b.gates
	isVar := s.b.isVar
	vals := s.vals
	vals[0] = 0 // constant false in every lane
	for i := 1; i < len(gates); i++ {
		if isVar[i] {
			continue
		}
		g := gates[i]
		a := vals[g.a>>1]
		if g.a&1 == 1 {
			a = ^a
		}
		bb := vals[g.b>>1]
		if g.b&1 == 1 {
			bb = ^bb
		}
		vals[i] = a & bb
	}
}

// Val returns the 64-lane word of node n after a Run.
func (s *Sim) Val(n Node) uint64 {
	v := s.vals[n.index()]
	if n.compl() {
		return ^v
	}
	return v
}

// Bit reports node n's value in one lane after a Run.
func (s *Sim) Bit(n Node, lane int) bool {
	return s.Val(n)>>uint(lane)&1 == 1
}

// FirstLane returns the lowest lane in which node n evaluates true,
// and whether any lane does — the witness-extraction primitive of the
// prefilter (the lowest set bit keeps lane choice deterministic).
func (s *Sim) FirstLane(n Node) (int, bool) {
	w := s.Val(n)
	if w == 0 {
		return 0, false
	}
	return bits.TrailingZeros64(w), true
}
