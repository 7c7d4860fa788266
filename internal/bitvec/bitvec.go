// Package bitvec implements symbolic bit-vectors over logic circuit
// nodes. A BV is a little-endian slice of logic.Node values (bit 0 is
// the least significant). All arithmetic follows SystemVerilog
// two-state unsigned semantics at the declared width: results are
// truncated, operands are zero-extended to a common width.
package bitvec

import (
	"fveval/internal/logic"
)

// BV is a symbolic bit-vector. Index 0 is the LSB.
type BV struct {
	Bits []logic.Node
}

// Width returns the number of bits.
func (v BV) Width() int { return len(v.Bits) }

// Const builds a constant bit-vector of the given width from val
// (truncating).
func Const(val uint64, width int) BV {
	bits := make([]logic.Node, width)
	for i := 0; i < width; i++ {
		if i < 64 && val&(1<<uint(i)) != 0 {
			bits[i] = logic.True
		} else {
			bits[i] = logic.False
		}
	}
	return BV{bits}
}

// FromBool wraps a single node as a 1-bit vector.
func FromBool(n logic.Node) BV { return BV{[]logic.Node{n}} }

// Inputs allocates width fresh input nodes, least significant bit
// first.
func Inputs(b *logic.Builder, width int) BV {
	bits := make([]logic.Node, width)
	for i := range bits {
		bits[i] = b.Input()
	}
	return BV{bits}
}

// Extend zero-extends (or truncates) v to width w.
func (v BV) Extend(w int) BV {
	if len(v.Bits) == w {
		return v
	}
	bits := make([]logic.Node, w)
	for i := 0; i < w; i++ {
		if i < len(v.Bits) {
			bits[i] = v.Bits[i]
		} else {
			bits[i] = logic.False
		}
	}
	return BV{bits}
}

func common(a, b BV) (BV, BV, int) {
	w := max(a.Width(), b.Width())
	return a.Extend(w), b.Extend(w), w
}

// Ops bundles a builder with bit-vector operations.
type Ops struct{ B *logic.Builder }

// Not returns the bitwise complement.
func (o Ops) Not(v BV) BV {
	bits := make([]logic.Node, len(v.Bits))
	for i, n := range v.Bits {
		bits[i] = n.Not()
	}
	return BV{bits}
}

// And returns the bitwise conjunction.
func (o Ops) And(a, b BV) BV { return o.bitwise(a, b, o.B.And) }

// Or returns the bitwise disjunction.
func (o Ops) Or(a, b BV) BV { return o.bitwise(a, b, o.B.Or) }

// Xor returns the bitwise exclusive-or.
func (o Ops) Xor(a, b BV) BV { return o.bitwise(a, b, o.B.Xor) }

// Xnor returns the bitwise equivalence.
func (o Ops) Xnor(a, b BV) BV { return o.bitwise(a, b, o.B.Xnor) }

func (o Ops) bitwise(a, b BV, f func(x, y logic.Node) logic.Node) BV {
	a, b, w := common(a, b)
	bits := make([]logic.Node, w)
	for i := 0; i < w; i++ {
		bits[i] = f(a.Bits[i], b.Bits[i])
	}
	return BV{bits}
}

// Add returns a+b truncated to the common width.
func (o Ops) Add(a, b BV) BV {
	a, b, w := common(a, b)
	bits := make([]logic.Node, w)
	carry := logic.False
	for i := 0; i < w; i++ {
		x, y := a.Bits[i], b.Bits[i]
		s := o.B.Xor(o.B.Xor(x, y), carry)
		carry = o.B.Or(o.B.And(x, y), o.B.And(carry, o.B.Xor(x, y)))
		bits[i] = s
	}
	return BV{bits}
}

// Sub returns a-b truncated to the common width (two's complement).
func (o Ops) Sub(a, b BV) BV {
	a, b, w := common(a, b)
	bits := make([]logic.Node, w)
	carry := logic.True // +1 for two's complement
	for i := 0; i < w; i++ {
		x, y := a.Bits[i], b.Bits[i].Not()
		s := o.B.Xor(o.B.Xor(x, y), carry)
		carry = o.B.Or(o.B.And(x, y), o.B.And(carry, o.B.Xor(x, y)))
		bits[i] = s
	}
	return BV{bits}
}

// Neg returns -a (two's complement).
func (o Ops) Neg(a BV) BV { return o.Sub(Const(0, a.Width()), a) }

// Mul returns a*b truncated to the common width (shift-and-add).
func (o Ops) Mul(a, b BV) BV {
	a, b, w := common(a, b)
	acc := Const(0, w)
	for i := 0; i < w; i++ {
		// acc += (b[i] ? a<<i : 0)
		shifted := o.ShlConst(a, i)
		gated := make([]logic.Node, w)
		for j := 0; j < w; j++ {
			gated[j] = o.B.And(shifted.Bits[j], b.Bits[i])
		}
		acc = o.Add(acc, BV{gated})
	}
	return acc
}

// ShlConst shifts left by a constant amount, zero filling.
func (o Ops) ShlConst(v BV, k int) BV {
	w := v.Width()
	bits := make([]logic.Node, w)
	for i := 0; i < w; i++ {
		if i-k >= 0 && i-k < w {
			bits[i] = v.Bits[i-k]
		} else {
			bits[i] = logic.False
		}
	}
	return BV{bits}
}

// ShrConst shifts right logically by a constant amount.
func (o Ops) ShrConst(v BV, k int) BV {
	w := v.Width()
	bits := make([]logic.Node, w)
	for i := 0; i < w; i++ {
		if i+k < w {
			bits[i] = v.Bits[i+k]
		} else {
			bits[i] = logic.False
		}
	}
	return BV{bits}
}

// AshrConst shifts right arithmetically by a constant amount.
func (o Ops) AshrConst(v BV, k int) BV {
	w := v.Width()
	if w == 0 {
		return v
	}
	sign := v.Bits[w-1]
	bits := make([]logic.Node, w)
	for i := 0; i < w; i++ {
		if i+k < w {
			bits[i] = v.Bits[i+k]
		} else {
			bits[i] = sign
		}
	}
	return BV{bits}
}

// Shl shifts left by a symbolic amount (barrel shifter).
func (o Ops) Shl(v, amt BV) BV { return o.barrel(v, amt, o.ShlConst) }

// Shr shifts right logically by a symbolic amount.
func (o Ops) Shr(v, amt BV) BV { return o.barrel(v, amt, o.ShrConst) }

// Ashr shifts right arithmetically by a symbolic amount.
func (o Ops) Ashr(v, amt BV) BV { return o.barrel(v, amt, o.AshrConst) }

func (o Ops) barrel(v, amt BV, step func(BV, int) BV) BV {
	res := v
	for i := 0; i < amt.Width() && (1<<uint(i)) <= v.Width(); i++ {
		res = o.Mux(amt.Bits[i], step(res, 1<<uint(i)), res)
	}
	// If any higher amount bit is set the result is the full shift-out
	// (all zeros for logical, sign for arithmetic via stepping by width).
	var over logic.Node = logic.False
	for i := 0; i < amt.Width(); i++ {
		if (1 << uint(i)) > v.Width() {
			over = o.B.Or(over, amt.Bits[i])
		}
	}
	if over != logic.False {
		res = o.Mux(over, step(v, v.Width()), res)
	}
	return res
}

// Mux returns sel ? t : f bitwise.
func (o Ops) Mux(sel logic.Node, t, f BV) BV {
	t, f, w := common(t, f)
	bits := make([]logic.Node, w)
	for i := 0; i < w; i++ {
		bits[i] = o.B.Mux(sel, t.Bits[i], f.Bits[i])
	}
	return BV{bits}
}

// Eq returns the single-bit equality a == b.
func (o Ops) Eq(a, b BV) logic.Node {
	a, b, w := common(a, b)
	acc := logic.True
	for i := 0; i < w; i++ {
		acc = o.B.And(acc, o.B.Xnor(a.Bits[i], b.Bits[i]))
	}
	return acc
}

// Ne returns a != b.
func (o Ops) Ne(a, b BV) logic.Node { return o.Eq(a, b).Not() }

// Ult returns the unsigned comparison a < b.
func (o Ops) Ult(a, b BV) logic.Node {
	a, b, w := common(a, b)
	lt := logic.False
	for i := 0; i < w; i++ { // from LSB to MSB
		x, y := a.Bits[i], b.Bits[i]
		lt = o.B.Mux(o.B.Xor(x, y), o.B.And(x.Not(), y), lt)
	}
	return lt
}

// Ule returns a <= b unsigned.
func (o Ops) Ule(a, b BV) logic.Node { return o.Ult(b, a).Not() }

// RedOr returns the OR-reduction (nonzero test).
func (o Ops) RedOr(v BV) logic.Node { return o.B.OrSlice(v.Bits) }

// RedAnd returns the AND-reduction.
func (o Ops) RedAnd(v BV) logic.Node { return o.B.AndSlice(v.Bits) }

// RedXor returns the XOR-reduction (parity).
func (o Ops) RedXor(v BV) logic.Node {
	acc := logic.False
	for _, n := range v.Bits {
		acc = o.B.Xor(acc, n)
	}
	return acc
}

// Bool converts a vector to its truth value (nonzero).
func (o Ops) Bool(v BV) logic.Node { return o.RedOr(v) }

// CountOnes returns a vector holding the population count, wide enough
// to hold the maximum count.
func (o Ops) CountOnes(v BV) BV {
	w := 1
	for (1 << uint(w)) <= v.Width() {
		w++
	}
	acc := Const(0, w)
	for _, bit := range v.Bits {
		acc = o.Add(acc, FromBool(bit).Extend(w))
	}
	return acc
}

// OneHot returns the $onehot test: exactly one bit set.
func (o Ops) OneHot(v BV) logic.Node {
	// exactly one: some bit set AND no two bits set
	return o.B.And(o.RedOr(v), o.atMostOne(v))
}

// OneHot0 returns the $onehot0 test: at most one bit set.
func (o Ops) OneHot0(v BV) logic.Node { return o.atMostOne(v) }

func (o Ops) atMostOne(v BV) logic.Node {
	// pairwise exclusion; O(n^2) but widths here are tiny
	acc := logic.True
	for i := 0; i < len(v.Bits); i++ {
		for j := i + 1; j < len(v.Bits); j++ {
			acc = o.B.And(acc, o.B.And(v.Bits[i], v.Bits[j]).Not())
		}
	}
	return acc
}

// Concat concatenates vectors with the SystemVerilog convention
// {a, b}: a occupies the high bits.
func (o Ops) Concat(parts ...BV) BV {
	var bits []logic.Node
	for i := len(parts) - 1; i >= 0; i-- {
		bits = append(bits, parts[i].Bits...)
	}
	return BV{bits}
}

// Extract returns v[hi:lo].
func (o Ops) Extract(v BV, hi, lo int) BV {
	if lo < 0 {
		lo = 0
	}
	if hi >= v.Width() {
		hi = v.Width() - 1
	}
	if hi < lo {
		return Const(0, 1)
	}
	return BV{append([]logic.Node(nil), v.Bits[lo:hi+1]...)}
}

// Index returns the single bit v[i] selected by a symbolic index.
func (o Ops) Index(v, idx BV) logic.Node {
	res := logic.False
	for i := 0; i < v.Width(); i++ {
		sel := o.Eq(idx, Const(uint64(i), idx.Width()))
		res = o.B.Or(res, o.B.And(sel, v.Bits[i]))
	}
	return res
}

// Replicate returns n copies of v concatenated.
func (o Ops) Replicate(v BV, n int) BV {
	var bits []logic.Node
	for i := 0; i < n; i++ {
		bits = append(bits, v.Bits...)
	}
	return BV{bits}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
