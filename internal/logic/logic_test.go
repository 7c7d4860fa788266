package logic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fveval/internal/sat"
)

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	cases := []struct {
		got, want Node
		name      string
	}{
		{b.And(False, x), False, "0&x"},
		{b.And(x, False), False, "x&0"},
		{b.And(True, x), x, "1&x"},
		{b.And(x, True), x, "x&1"},
		{b.And(x, x), x, "x&x"},
		{b.And(x, x.Not()), False, "x&!x"},
		{b.Or(x, True), True, "x|1"},
		{b.Or(x, x.Not()), True, "x|!x"},
		{b.Xor(x, x), False, "x^x"},
		{b.Xor(x, False), x, "x^0"},
		{b.Xor(x, True), x.Not(), "x^1"},
		{b.Mux(True, x, x.Not()), x, "mux1"},
		{b.Mux(False, x, x.Not()), x.Not(), "mux0"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
}

func TestStructuralHashing(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	a1 := b.And(x, y)
	a2 := b.And(y, x)
	if a1 != a2 {
		t.Fatalf("commutative ANDs must hash to the same node")
	}
	n := b.NumNodes()
	b.And(x, y)
	if b.NumNodes() != n {
		t.Fatalf("repeated AND must not allocate")
	}
}

func TestEval(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	z := b.Input()
	f := b.Or(b.And(x, y), b.And(x.Not(), z)) // mux(x, y, z)
	for mask := 0; mask < 8; mask++ {
		env := map[Node]bool{
			x: mask&1 != 0, y: mask&2 != 0, z: mask&4 != 0,
		}
		want := env[z]
		if env[x] {
			want = env[y]
		}
		if got := b.Eval(f, env, nil); got != want {
			t.Fatalf("mask %d: got %v want %v", mask, got, want)
		}
	}
}

func TestCNFAgreesWithEval(t *testing.T) {
	// Property: for random circuits, the CNF encoding is satisfiable with
	// output true exactly when some input assignment makes Eval true,
	// and returned models evaluate to true.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		nIn := 2 + rng.Intn(5)
		var ins []Node
		for i := 0; i < nIn; i++ {
			ins = append(ins, b.Input())
		}
		pool := append([]Node(nil), ins...)
		for i := 0; i < 12; i++ {
			x := pool[rng.Intn(len(pool))]
			y := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				x = x.Not()
			}
			var n Node
			switch rng.Intn(3) {
			case 0:
				n = b.And(x, y)
			case 1:
				n = b.Or(x, y)
			default:
				n = b.Xor(x, y)
			}
			pool = append(pool, n)
		}
		out := pool[len(pool)-1]

		// brute force
		anyTrue := false
		for mask := 0; mask < 1<<uint(nIn); mask++ {
			env := map[Node]bool{}
			for i, in := range ins {
				env[in] = mask&(1<<uint(i)) != 0
			}
			if b.Eval(out, env, nil) {
				anyTrue = true
				break
			}
		}

		s := sat.New()
		c := NewCNF(b, s)
		c.Assert(out)
		ok, model, err := s.Solve()
		if err != nil {
			return false
		}
		if ok != anyTrue {
			return false
		}
		if ok {
			env := map[Node]bool{}
			for _, in := range ins {
				env[in] = c.InputValue(model, in)
			}
			if !b.Eval(out, env, nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCNFUnsat(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	s := sat.New()
	c := NewCNF(b, s)
	c.Assert(b.And(x, x.Not()))
	ok, _, _ := s.Solve()
	if ok {
		t.Fatalf("x AND !x must be UNSAT")
	}
}

func TestConstTrueAssertion(t *testing.T) {
	b := NewBuilder()
	s := sat.New()
	c := NewCNF(b, s)
	c.Assert(True)
	ok, _, _ := s.Solve()
	if !ok {
		t.Fatalf("asserting true must stay SAT")
	}
	c.Assert(False)
	ok, _, _ = s.Solve()
	if ok {
		t.Fatalf("asserting false must be UNSAT")
	}
}

func TestDeepChainEncoding(t *testing.T) {
	// A long AND chain must encode without recursion issues.
	b := NewBuilder()
	acc := True
	var ins []Node
	for i := 0; i < 5000; i++ {
		in := b.Input()
		ins = append(ins, in)
		acc = b.And(acc, in)
	}
	s := sat.New()
	c := NewCNF(b, s)
	c.Assert(acc)
	ok, model, err := s.Solve()
	if err != nil || !ok {
		t.Fatalf("chain must be SAT: %v %v", ok, err)
	}
	for _, in := range ins {
		if !c.InputValue(model, in) {
			t.Fatalf("all chain inputs must be true")
		}
	}
}

func TestAndAllOrAll(t *testing.T) {
	b := NewBuilder()
	if b.AndSlice(nil) != True {
		t.Fatalf("empty AndSlice must be True")
	}
	if b.OrSlice(nil) != False {
		t.Fatalf("empty OrSlice must be False")
	}
	x, y := b.Input(), b.Input()
	if b.AndSlice([]Node{x, y}) != b.And(x, y) {
		t.Fatalf("AndSlice(x,y) != And(x,y)")
	}
	if b.OrSlice([]Node{x, y}) != b.Or(x, y) {
		t.Fatalf("OrSlice(x,y) != Or(x,y)")
	}
}

// TestCNFIncrementalEmission pins the monotone-emission contract the
// incremental backend relies on: re-asserting an encoded cone emits
// nothing, and asserting a new gate over an old cone pays only for the
// new nodes, advancing the high-water mark.
func TestCNFIncrementalEmission(t *testing.T) {
	b := NewBuilder()
	s := sat.New()
	c := NewCNF(b, s)
	x, y := b.Input(), b.Input()
	n1 := b.And(x, y)
	c.Assert(n1)
	enc1, hw1, vars1 := c.Encoded(), c.HighWater(), s.Stats().Vars
	if enc1 == 0 || hw1 == 0 {
		t.Fatalf("first Assert must encode nodes: encoded=%d highwater=%d", enc1, hw1)
	}

	// Re-asserting the same cone is free.
	c.Assert(n1)
	if c.Encoded() != enc1 || c.HighWater() != hw1 || s.Stats().Vars != vars1 {
		t.Fatalf("re-assert emitted: encoded %d->%d, highwater %d->%d, vars %d->%d",
			enc1, c.Encoded(), hw1, c.HighWater(), vars1, s.Stats().Vars)
	}

	// A new gate over the old cone pays only for the new nodes.
	preNodes := b.NumNodes()
	n2 := b.Or(n1, b.Input())
	newNodes := b.NumNodes() - preNodes
	c.Assert(n2)
	if got := c.Encoded() - enc1; got != newNodes {
		t.Fatalf("incremental Assert encoded %d nodes, want exactly the %d new ones", got, newNodes)
	}
	if c.HighWater() <= hw1 {
		t.Fatalf("high-water mark must advance past %d, got %d", hw1, c.HighWater())
	}
	if got := s.Stats().Vars - vars1; got != newNodes {
		t.Fatalf("incremental Assert allocated %d sat vars, want %d", got, newNodes)
	}
}

// TestCNFActivationGating pins AssertIf/Retire: a gated constraint
// binds only under its activation assumption, and retiring the
// activation drops it permanently.
func TestCNFActivationGating(t *testing.T) {
	b := NewBuilder()
	s := sat.New()
	c := NewCNF(b, s)
	x := b.Input()
	act := b.Input()
	c.AssertIf(act, x.Not())
	c.Assert(x) // permanent: x is true

	if ok, _, err := s.Solve(); err != nil || !ok {
		t.Fatalf("ungated solve must be sat: ok=%v err=%v", ok, err)
	}
	if ok, _, err := s.Solve(c.Lit(act)); err != nil || ok {
		t.Fatalf("activated contradiction must be unsat: ok=%v err=%v", ok, err)
	}
	c.Retire(act)
	if ok, _, err := s.Solve(); err != nil || !ok {
		t.Fatalf("retired constraint must drop out: ok=%v err=%v", ok, err)
	}
	// Re-activating a retired literal is trivially unsat via the unit.
	if ok, _, err := s.Solve(c.Lit(act)); err != nil || ok {
		t.Fatalf("assuming a retired activation must be unsat: ok=%v err=%v", ok, err)
	}
}
