package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"fveval/internal/logic"
)

// evalBV evaluates a symbolic vector whose inputs are assigned via env.
func evalBV(b *logic.Builder, v BV, env map[logic.Node]bool) uint64 {
	cache := map[int32]bool{}
	var out uint64
	for i, n := range v.Bits {
		if b.Eval(n, env, cache) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// withInputs builds two symbolic inputs of width w and an env assigning
// concrete values.
func withInputs(w int, av, bv uint64) (*logic.Builder, Ops, BV, BV, map[logic.Node]bool) {
	b := logic.NewBuilder()
	o := Ops{b}
	x := Inputs(b, w)
	y := Inputs(b, w)
	env := map[logic.Node]bool{}
	for i := 0; i < w; i++ {
		env[x.Bits[i]] = av&(1<<uint(i)) != 0
		env[y.Bits[i]] = bv&(1<<uint(i)) != 0
	}
	return b, o, x, y, env
}

func maskW(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(w)) - 1
}

func TestArithAgainstUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		w := 1 + rng.Intn(12)
		m := maskW(w)
		av := rng.Uint64() & m
		bv := rng.Uint64() & m
		b, o, x, y, env := withInputs(w, av, bv)

		checks := []struct {
			name string
			got  BV
			want uint64
		}{
			{"add", o.Add(x, y), (av + bv) & m},
			{"sub", o.Sub(x, y), (av - bv) & m},
			{"and", o.And(x, y), av & bv},
			{"or", o.Or(x, y), av | bv},
			{"xor", o.Xor(x, y), av ^ bv},
			{"not", o.Not(x), ^av & m},
			{"neg", o.Neg(x), (-av) & m},
			{"mul", o.Mul(x, y), (av * bv) & m},
			{"shl3", o.ShlConst(x, 3), (av << 3) & m},
			{"shr2", o.ShrConst(x, 2), av >> 2},
		}
		for _, c := range checks {
			if got := evalBV(b, c.got, env); got != c.want {
				t.Fatalf("w=%d a=%d b=%d: %s got %d want %d", w, av, bv, c.name, got, c.want)
			}
		}
	}
}

func TestAshrConst(t *testing.T) {
	b := logic.NewBuilder()
	o := Ops{b}
	v := Const(0b1100, 4)
	if got := evalBV(b, o.AshrConst(v, 1), nil); got != 0b1110 {
		t.Fatalf("ashr(1100,1) got %04b want 1110", got)
	}
	got := evalBV(b, o.AshrConst(Const(0b0100, 4), 1), nil)
	if got != 0b0010 {
		t.Fatalf("ashr(0100,1) got %04b want 0010", got)
	}
}

func TestComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		w := 1 + rng.Intn(10)
		m := maskW(w)
		av := rng.Uint64() & m
		bv := rng.Uint64() & m
		b, o, x, y, env := withInputs(w, av, bv)
		cache := map[int32]bool{}
		if got := b.Eval(o.Eq(x, y), env, cache); got != (av == bv) {
			t.Fatalf("eq(%d,%d) got %v", av, bv, got)
		}
		if got := b.Eval(o.Ult(x, y), env, cache); got != (av < bv) {
			t.Fatalf("ult(%d,%d) got %v", av, bv, got)
		}
		if got := b.Eval(o.Ule(x, y), env, cache); got != (av <= bv) {
			t.Fatalf("ule(%d,%d) got %v", av, bv, got)
		}
	}
}

func TestReductionsAndCounts(t *testing.T) {
	f := func(raw uint16, wRaw uint8) bool {
		w := 1 + int(wRaw%12)
		m := maskW(w)
		av := uint64(raw) & m
		b := logic.NewBuilder()
		o := Ops{b}
		x := Inputs(b, w)
		env := map[logic.Node]bool{}
		for i := 0; i < w; i++ {
			env[x.Bits[i]] = av&(1<<uint(i)) != 0
		}
		cache := map[int32]bool{}
		pop := bits.OnesCount64(av)
		if b.Eval(o.RedOr(x), env, cache) != (av != 0) {
			return false
		}
		if b.Eval(o.RedAnd(x), env, cache) != (av == m) {
			return false
		}
		if b.Eval(o.RedXor(x), env, cache) != (pop%2 == 1) {
			return false
		}
		if b.Eval(o.OneHot(x), env, cache) != (pop == 1) {
			return false
		}
		if b.Eval(o.OneHot0(x), env, cache) != (pop <= 1) {
			return false
		}
		if evalBV(b, o.CountOnes(x), env) != uint64(pop) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolicShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		w := 2 + rng.Intn(10)
		m := maskW(w)
		av := rng.Uint64() & m
		amt := uint64(rng.Intn(w + 3))
		b := logic.NewBuilder()
		o := Ops{b}
		x := Inputs(b, w)
		a := Inputs(b, 4)
		env := map[logic.Node]bool{}
		for i := 0; i < w; i++ {
			env[x.Bits[i]] = av&(1<<uint(i)) != 0
		}
		for i := 0; i < 4; i++ {
			env[a.Bits[i]] = amt&(1<<uint(i)) != 0
		}
		wantShl := uint64(0)
		wantShr := uint64(0)
		if amt < 64 {
			wantShl = (av << amt) & m
			wantShr = av >> amt
		}
		if got := evalBV(b, o.Shl(x, a), env); got != wantShl {
			t.Fatalf("w=%d shl(%d,%d) got %d want %d", w, av, amt, got, wantShl)
		}
		if got := evalBV(b, o.Shr(x, a), env); got != wantShr {
			t.Fatalf("w=%d shr(%d,%d) got %d want %d", w, av, amt, got, wantShr)
		}
	}
}

func TestConcatExtractIndex(t *testing.T) {
	b := logic.NewBuilder()
	o := Ops{b}
	hi := Const(0b101, 3)
	lo := Const(0b01, 2)
	cat := o.Concat(hi, lo) // {3'b101, 2'b01} = 5'b10101
	got := evalBV(b, cat, nil)
	if got != 0b10101 {
		t.Fatalf("concat got %05b", got)
	}
	ex := o.Extract(cat, 3, 1) // bits 3..1 of 10101 = 010
	got = evalBV(b, ex, nil)
	if got != 0b010 {
		t.Fatalf("extract got %03b", got)
	}
	idx := o.Index(cat, Const(4, 3))
	if idx != logic.True {
		t.Fatalf("index bit 4 of 10101 must be 1")
	}
	rep := o.Replicate(Const(0b10, 2), 3)
	got = evalBV(b, rep, nil)
	if got != 0b101010 {
		t.Fatalf("replicate got %06b", got)
	}
}

func TestExtendTruncate(t *testing.T) {
	b := logic.NewBuilder()
	v := Const(0b1011, 4)
	if got := evalBV(b, v.Extend(6), nil); got != 0b001011 {
		t.Fatalf("zero extend got %06b", got)
	}
	if got := evalBV(b, v.Extend(2), nil); got != 0b11 {
		t.Fatalf("truncate got %02b", got)
	}
}

func TestMuxVector(t *testing.T) {
	b := logic.NewBuilder()
	o := Ops{b}
	s := b.Input()
	tv := Const(0b11, 2)
	fv := Const(0b00, 2)
	m := o.Mux(s, tv, fv)
	env := map[logic.Node]bool{s: true}
	if got := evalBV(b, m, env); got != 0b11 {
		t.Fatalf("mux true got %02b", got)
	}
	env[s] = false
	if got := evalBV(b, m, env); got != 0 {
		t.Fatalf("mux false got %02b", got)
	}
}
