// Package logic provides a structurally-hashed boolean circuit builder
// (an and-inverter-graph style representation) together with Tseitin
// translation to CNF for the sat package.
//
// The equivalence checker and the model checker both build their trace
// semantics as circuits here: atomic design/assertion expressions are
// bit-blasted into Node values, temporal operators combine them, and a
// single CNF emission hands the question to the SAT solver.
package logic

import (
	"fmt"

	"fveval/internal/sat"
)

// Node is a reference to a circuit node. The zero Node is the constant
// false; its complement is the constant true. Internally a node is an
// index with a complement bit, mirroring the sat.Lit encoding.
type Node int32

// Constants.
const (
	False Node = 0
	True  Node = 1
)

// IsConst reports whether n is one of the two constants.
func (n Node) IsConst() bool { return n&^1 == 0 }

func (n Node) index() int32 { return int32(n) >> 1 }
func (n Node) compl() bool  { return n&1 == 1 }

// Not returns the complement of n.
func (n Node) Not() Node { return n ^ 1 }

// Compl reports whether n is in complemented form.
func (n Node) Compl() bool { return n.compl() }

type gate struct {
	a, b Node // two-input AND gate; inputs may be complemented
}

// Builder constructs circuits. Nodes are value types referencing the
// builder's node table; a Node from one builder must not be used with
// another.
//
// Structural hashing uses a flat open-addressing table (Fibonacci
// hashing, linear probing) instead of a Go map: And is the single
// hottest constructor in the formal backend, and the flat table cuts
// both the hash and the probe to a few instructions.
type Builder struct {
	gates    []gate  // index 0 unused (reserved for constants)
	htab     []int32 // open addressing: gate index + 1, 0 = empty
	hshift   uint    // 64 - log2(len(htab))
	hcount   int     // occupied slots
	inputs   []Node  // free input nodes in creation order
	isVar    []bool  // per-index: true if free input
	hashHits int64   // And calls answered from the hash table
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder {
	b := &Builder{
		htab:   make([]int32, 1024),
		hshift: 64 - 10,
	}
	b.gates = append(b.gates, gate{}) // index 0: constants
	b.isVar = append(b.isVar, false)
	return b
}

// hashIdx returns the open-addressing start slot for a gate.
func (b *Builder) hashIdx(g gate) uint64 {
	key := uint64(uint32(g.a))<<32 | uint64(uint32(g.b))
	return (key * 0x9e3779b97f4a7c15) >> b.hshift
}

// hrehash doubles the table when load passes ~70%.
func (b *Builder) hrehash() {
	old := b.htab
	b.htab = make([]int32, 2*len(old))
	b.hshift--
	mask := uint64(len(b.htab) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		idx := b.hashIdx(b.gates[e-1])
		for b.htab[idx] != 0 {
			idx = (idx + 1) & mask
		}
		b.htab[idx] = e
	}
}

// NumNodes returns the number of allocated nodes (gates + inputs),
// excluding constants.
func (b *Builder) NumNodes() int { return len(b.gates) - 1 }

// HashHits returns the number of And constructions answered from the
// structural-hash table instead of allocating a new gate — the
// circuit-level reuse measure for incremental clients that keep one
// builder alive across a ramp of bounds.
func (b *Builder) HashHits() int64 { return b.hashHits }

// Input allocates a fresh free input node.
func (b *Builder) Input() Node {
	idx := int32(len(b.gates))
	b.gates = append(b.gates, gate{})
	b.isVar = append(b.isVar, true)
	n := Node(idx << 1)
	b.inputs = append(b.inputs, n)
	return n
}

// Inputs returns the inputs in creation order.
func (b *Builder) Inputs() []Node { return b.inputs }

// IsInput reports whether n references a free input node.
func (b *Builder) IsInput(n Node) bool { return b.isVar[n.index()] }

// And returns the conjunction of x and y with constant folding and
// structural hashing.
func (b *Builder) And(x, y Node) Node {
	// constant folding
	switch {
	case x == False || y == False:
		return False
	case x == True:
		return y
	case y == True:
		return x
	case x == y:
		return x
	case x == y.Not():
		return False
	}
	// canonical order for hashing
	if x > y {
		x, y = y, x
	}
	g := gate{x, y}
	mask := uint64(len(b.htab) - 1)
	slot := b.hashIdx(g)
	for {
		e := b.htab[slot]
		if e == 0 {
			break
		}
		if b.gates[e-1] == g {
			b.hashHits++
			return Node((e - 1) << 1)
		}
		slot = (slot + 1) & mask
	}
	idx := int32(len(b.gates))
	b.gates = append(b.gates, g)
	b.isVar = append(b.isVar, false)
	b.htab[slot] = idx + 1
	b.hcount++
	if 10*b.hcount >= 7*len(b.htab) {
		b.hrehash()
	}
	return Node(idx << 1)
}

// Or returns the disjunction of x and y.
func (b *Builder) Or(x, y Node) Node { return b.And(x.Not(), y.Not()).Not() }

// Xor returns x XOR y.
func (b *Builder) Xor(x, y Node) Node {
	// (x AND !y) OR (!x AND y)
	return b.Or(b.And(x, y.Not()), b.And(x.Not(), y))
}

// Xnor returns x XNOR y (equivalence).
func (b *Builder) Xnor(x, y Node) Node { return b.Xor(x, y).Not() }

// Implies returns x -> y.
func (b *Builder) Implies(x, y Node) Node { return b.Or(x.Not(), y) }

// Mux returns sel ? t : f.
func (b *Builder) Mux(sel, t, f Node) Node {
	if t == f {
		return t
	}
	return b.Or(b.And(sel, t), b.And(sel.Not(), f))
}

// AndSlice folds And over a node slice (True for an empty one).
func (b *Builder) AndSlice(ns []Node) Node {
	acc := True
	for _, n := range ns {
		acc = b.And(acc, n)
	}
	return acc
}

// OrSlice folds Or over a node slice (False for an empty one).
func (b *Builder) OrSlice(ns []Node) Node {
	acc := False
	for _, n := range ns {
		acc = b.Or(acc, n)
	}
	return acc
}

// Eval computes the value of node n under the assignment env, which
// maps input nodes (non-complemented) to values. Missing inputs default
// to false. It is a thin wrapper over the dense bit-parallel evaluator
// (see Sim): the first call runs one linear pass over the whole node
// table and, when a cache is supplied, spills every node's value into
// it, so repeated calls sharing a cache under one fixed env are O(1)
// lookups. Hot paths that decode many nodes should use Sim directly.
func (b *Builder) Eval(n Node, env map[Node]bool, cache map[int32]bool) bool {
	if v, ok := cache[n.index()]; ok {
		if n.compl() {
			return !v
		}
		return v
	}
	s := NewSim(b)
	for in, v := range env {
		if v {
			s.SetInput(in, ^uint64(0))
		}
	}
	s.Run()
	if cache != nil {
		for idx := range s.vals {
			cache[int32(idx)] = s.vals[idx]&1 == 1
		}
	}
	return s.Bit(n, 0)
}

// CNF incrementally Tseitin-encodes circuit nodes into a sat.Solver.
// Emission is monotone: each Lit/Assert call encodes only gates not
// yet seen (tracked per node, with the high-water node mark exposed
// via HighWater), so one growing Builder+Solver pair can serve many
// queries — the builder keeps hashing new gates, and every emission
// pays only for the newly built cone.
type CNF struct {
	b         *Builder
	solver    *sat.Solver
	varOf     []int32 // node index -> sat var (dense; -1 = not encoded)
	encoded   int     // nodes emitted so far
	highWater int32   // largest node index encoded so far
	stack     []cnfFrame
}

type cnfFrame struct {
	idx      int32
	expanded bool
}

// NewCNF creates a CNF emitter targeting the given solver.
func NewCNF(b *Builder, s *sat.Solver) *CNF {
	return &CNF{b: b, solver: s}
}

// Encoded returns the number of circuit nodes already emitted as CNF.
func (c *CNF) Encoded() int { return c.encoded }

// varFor looks up the sat var of a node index (-1 when not encoded).
// The table is dense over the builder's node indices and grows with
// it — emission-path lookups are array reads, not map probes.
func (c *CNF) varFor(idx int32) int32 {
	if int(idx) >= len(c.varOf) {
		return -1
	}
	return c.varOf[idx]
}

// HighWater returns the largest node index encoded so far: nodes at or
// below the mark may already be in the solver, nodes above it are
// guaranteed fresh work for the next emission.
func (c *CNF) HighWater() int32 { return c.highWater }

// Solver returns the underlying solver.
func (c *CNF) Solver() *sat.Solver { return c.solver }

// Lit returns the sat literal equivalent to node n, emitting Tseitin
// clauses for any gates not yet encoded. Constants are encoded via a
// dedicated always-true variable.
func (c *CNF) Lit(n Node) sat.Lit {
	idx := n.index()
	v := c.varFor(idx)
	if v < 0 {
		v = int32(c.encode(idx))
	}
	return sat.NewLit(int(v), n.compl())
}

func (c *CNF) encode(idx int32) int {
	if v := c.varFor(idx); v >= 0 {
		return int(v)
	}
	if idx == 0 || c.b.isVar[idx] {
		c.encodeLeaf(idx)
		return int(c.varOf[idx])
	}
	// Iterative post-order encoding to avoid deep recursion on long
	// temporal chains; the traversal stack is reused across calls.
	stack := append(c.stack[:0], cnfFrame{idx, false})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.varFor(f.idx) >= 0 {
			continue
		}
		if f.idx == 0 || c.b.isVar[f.idx] {
			c.encodeLeaf(f.idx)
			continue
		}
		g := c.b.gates[f.idx]
		ai, bi := g.a.index(), g.b.index()
		aDone := c.varFor(ai) >= 0
		bDone := c.varFor(bi) >= 0
		if f.expanded || (aDone && bDone) {
			if !aDone {
				c.encodeLeaf(ai)
			}
			if !bDone {
				c.encodeLeaf(bi)
			}
			c.emitAnd(f.idx, g)
			continue
		}
		stack = append(stack, cnfFrame{f.idx, true})
		if !aDone {
			stack = append(stack, cnfFrame{ai, false})
		}
		if !bDone {
			stack = append(stack, cnfFrame{bi, false})
		}
	}
	c.stack = stack[:0]
	return int(c.varOf[idx])
}

// setVar records the sat variable for a node and advances the
// high-water emission mark.
func (c *CNF) setVar(idx int32, v int) {
	if n := len(c.b.gates); len(c.varOf) < n {
		grown := make([]int32, n+n/2)
		copy(grown, c.varOf)
		for i := len(c.varOf); i < len(grown); i++ {
			grown[i] = -1
		}
		c.varOf = grown
	}
	c.varOf[idx] = int32(v)
	c.encoded++
	if idx > c.highWater {
		c.highWater = idx
	}
}

func (c *CNF) encodeLeaf(idx int32) {
	if c.varFor(idx) >= 0 {
		return
	}
	v := c.solver.NewVar()
	c.setVar(idx, v)
	if idx == 0 {
		c.solver.AddClause(sat.NewLit(v, true))
	}
}

func (c *CNF) emitAnd(idx int32, g gate) {
	if c.varFor(idx) >= 0 {
		return
	}
	v := c.solver.NewVar()
	c.setVar(idx, v)
	out := sat.NewLit(v, false)
	a := c.litOf(g.a)
	b := c.litOf(g.b)
	// v <-> a AND b
	c.solver.AddClause(out.Not(), a)
	c.solver.AddClause(out.Not(), b)
	c.solver.AddClause(out, a.Not(), b.Not())
}

func (c *CNF) litOf(n Node) sat.Lit {
	v := c.varFor(n.index())
	if v < 0 {
		panic(fmt.Sprintf("logic: child node %d not yet encoded", n.index()))
	}
	return sat.NewLit(int(v), n.compl())
}

// Assert adds a unit clause requiring node n to be true.
func (c *CNF) Assert(n Node) { c.solver.AddClause(c.Lit(n)) }

// AssertIf adds the clause (cond -> n): n must hold whenever cond
// does. With cond a fresh free input this gates a constraint behind an
// activation literal — pass cond's literal as a Solve assumption to
// enable the constraint for one call, or Retire it to drop the
// constraint permanently.
func (c *CNF) AssertIf(cond, n Node) {
	c.solver.AddClause(c.Lit(cond).Not(), c.Lit(n))
}

// Retire permanently forces an activation node false, disabling every
// constraint asserted under it. Learnt clauses mentioning the
// activation stay sound: they are implied by the clause set, which now
// simply includes the unit.
func (c *CNF) Retire(act Node) {
	c.solver.AddClause(c.Lit(act).Not())
}

// InputValue reads the value of an input node from a sat model.
func (c *CNF) InputValue(model []bool, n Node) bool {
	v := c.varFor(n.index())
	if v < 0 {
		return false // unconstrained input: any value works; pick false
	}
	val := model[v]
	if n.compl() {
		return !val
	}
	return val
}
