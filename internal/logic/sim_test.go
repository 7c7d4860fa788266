package logic

import (
	"math/rand"
	"testing"
)

// randomCircuit builds a DAG of random gates over nVars inputs and
// returns the inputs plus a set of probe nodes.
func randomCircuit(rng *rand.Rand, b *Builder, nVars, nGates int) ([]Node, []Node) {
	inputs := make([]Node, nVars)
	for i := range inputs {
		inputs[i] = b.Input()
	}
	pool := append([]Node{True, False}, inputs...)
	for i := 0; i < nGates; i++ {
		x := pool[rng.Intn(len(pool))]
		y := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			x = x.Not()
		}
		var n Node
		switch rng.Intn(4) {
		case 0:
			n = b.And(x, y)
		case 1:
			n = b.Or(x, y)
		case 2:
			n = b.Xor(x, y)
		default:
			n = b.Mux(x, y, pool[rng.Intn(len(pool))])
		}
		pool = append(pool, n)
	}
	return inputs, pool
}

// TestSimMatchesEval cross-checks the 64-lane bit-parallel evaluator
// against the single-pattern Eval wrapper on random circuits: every
// lane of every node must agree with a scalar evaluation of that
// lane's assignment.
func TestSimMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		b := NewBuilder()
		inputs, pool := randomCircuit(rng, b, 6, 60)

		sim := NewSim(b)
		words := make([]uint64, len(inputs))
		for i, in := range inputs {
			words[i] = rng.Uint64()
			sim.SetInput(in, words[i])
		}
		sim.Run()

		for _, lane := range []int{0, 1, 17, 63} {
			env := map[Node]bool{}
			for i, in := range inputs {
				env[in] = words[i]>>uint(lane)&1 == 1
			}
			cache := map[int32]bool{}
			for _, n := range pool {
				if got, want := sim.Bit(n, lane), b.Eval(n, env, cache); got != want {
					t.Fatalf("trial %d lane %d node %d: sim=%v eval=%v", trial, lane, n, got, want)
				}
			}
		}
	}
}

// TestSimIncrementalGrowth checks that a Sim keeps working as its
// builder grows between runs — the prefilter's usage pattern across a
// bound ramp.
func TestSimIncrementalGrowth(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	g1 := b.And(x, y)
	sim := NewSim(b)
	sim.SetInput(x, 0b1100)
	sim.SetInput(y, 0b1010)
	sim.Run()
	if sim.Val(g1)&0xF != 0b1000 {
		t.Fatalf("and lanes = %b", sim.Val(g1)&0xF)
	}
	z := b.Input()
	g2 := b.Or(g1, z)
	sim.SetInput(z, 0b0001)
	sim.Run()
	if sim.Val(g2)&0xF != 0b1001 {
		t.Fatalf("or lanes after growth = %b", sim.Val(g2)&0xF)
	}
	if lane, ok := sim.FirstLane(g2); !ok || lane != 0 {
		t.Fatalf("FirstLane = %d, %v", lane, ok)
	}
	if _, ok := sim.FirstLane(b.And(g2, g2.Not())); ok {
		t.Fatal("FirstLane found a lane for constant false")
	}
}

// TestEvalCacheSpill pins the Eval wrapper contract: a shared cache
// makes repeated queries under one env O(1), and complemented nodes
// read correctly through it.
func TestEvalCacheSpill(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	n := b.Xor(x, y)
	env := map[Node]bool{x: true}
	cache := map[int32]bool{}
	if !b.Eval(n, env, cache) {
		t.Fatal("x xor y with x=1 y=0 should be true")
	}
	if len(cache) == 0 {
		t.Fatal("cache was not populated")
	}
	if b.Eval(n.Not(), env, cache) {
		t.Fatal("complement read through cache is wrong")
	}
}
