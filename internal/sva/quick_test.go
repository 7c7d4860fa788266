package sva

import (
	"testing"
	"testing/quick"

	"math/rand"
)

// randExpr builds a random well-formed expression for round-trip
// property testing.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return &Ident{Name: "sig_" + string(rune('A'+rng.Intn(8)))}
		case 1:
			return &Num{Text: "3", Value: 3}
		case 2:
			return &Num{Text: "2'b01", Value: 1, Width: 2}
		default:
			return &Call{Name: "$countones", Args: []Expr{
				&Ident{Name: "sig_" + string(rune('A'+rng.Intn(8)))}}}
		}
	}
	switch rng.Intn(7) {
	case 0:
		return &Unary{Op: pickOp(rng, "!", "~", "&", "|", "^"), X: randExpr(rng, depth-1)}
	case 1, 2:
		return &Binary{
			Op: pickOp(rng, "&&", "||", "==", "!=", "<", "<=", "+", "-", "&", "|", "^"),
			X:  randExpr(rng, depth-1), Y: randExpr(rng, depth-1)}
	case 3:
		return &Cond{C: randExpr(rng, depth-1), T: randExpr(rng, depth-1), E: randExpr(rng, depth-1)}
	case 4:
		return &Concat{Parts: []Expr{randExpr(rng, depth-1), randExpr(rng, depth-1)}}
	case 5:
		return &Index{X: &Ident{Name: "sig_A"}, Idx: &Num{Text: "1", Value: 1}}
	default:
		return &Select{X: &Ident{Name: "sig_B"},
			Hi: &Num{Text: "3", Value: 3}, Lo: &Num{Text: "1", Value: 1}}
	}
}

func pickOp(rng *rand.Rand, ops ...string) string { return ops[rng.Intn(len(ops))] }

func randSeq(rng *rand.Rand, depth int) Sequence {
	if depth <= 0 {
		return &SeqExpr{E: randExpr(rng, 1)}
	}
	switch rng.Intn(5) {
	case 0:
		d := 1 + rng.Intn(3)
		return &SeqDelay{L: randSeq(rng, depth-1),
			D: Delay{Lo: d, Hi: d}, R: randSeq(rng, depth-1)}
	case 1:
		lo := 1 + rng.Intn(2)
		return &SeqDelay{L: randSeq(rng, depth-1),
			D: Delay{Lo: lo, Hi: lo + rng.Intn(3)}, R: randSeq(rng, depth-1)}
	case 2:
		return &SeqRepeat{S: &SeqExpr{E: randExpr(rng, 1)}, Lo: 1, Hi: 1 + rng.Intn(2)}
	case 3:
		return &SeqBinary{Op: pickOp(rng, "and", "or", "intersect"),
			L: randSeq(rng, depth-1), R: randSeq(rng, depth-1)}
	default:
		return &SeqThroughout{E: randExpr(rng, 1), S: randSeq(rng, depth-1)}
	}
}

func randProp(rng *rand.Rand, depth int) Property {
	if depth <= 0 {
		return &PropSeq{S: &SeqExpr{E: randExpr(rng, 1)}}
	}
	switch rng.Intn(8) {
	case 0:
		return &PropNot{P: randProp(rng, depth-1)}
	case 1:
		return &PropBinary{Op: pickOp(rng, "and", "or", "implies"),
			L: &PropSeq{S: &SeqExpr{E: randExpr(rng, 1)}},
			R: randProp(rng, depth-1)}
	case 2, 3:
		return &PropImpl{S: randSeq(rng, 1), Overlap: rng.Intn(2) == 0,
			P: randProp(rng, depth-1)}
	case 4:
		return &PropEventually{P: randProp(rng, depth-1), Strong: true}
	case 5:
		return &PropUntil{L: &PropSeq{S: &SeqExpr{E: randExpr(rng, 1)}},
			R: randProp(rng, depth-1), Strong: rng.Intn(2) == 0}
	case 6:
		return &PropAlways{P: randProp(rng, depth-1)}
	default:
		return &PropSeq{S: randSeq(rng, depth)}
	}
}

// TestQuickPrinterRoundTrip: the printer/parser pair must reach a
// fixed point after one normalization — the parser canonicalizes
// surface forms the grammar cannot distinguish (property-and of plain
// boolean operands folds to sequence-and), so the property is
// idempotence from the first reparse onward. Trees whose printed form
// is rejected by the parser (structurally impossible antecedents,
// etc.) are skipped.
func TestQuickPrinterRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randProp(rng, 2+rng.Intn(2))
		first, err := parseBody(p.String())
		if err != nil {
			return true // not all random trees have valid surface syntax
		}
		canonical := first.String()
		second, err := parseBody(canonical)
		if err != nil {
			return false // canonical text must always reparse
		}
		return second.String() == canonical
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAssertionRoundTrip does the same through the assertion
// wrapper including disable-iff.
func TestQuickAssertionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := &Assertion{
			ClockEdge: "posedge",
			ClockName: "clk",
			Body:      randProp(rng, 2),
		}
		if rng.Intn(2) == 0 {
			a.DisableIff = &Ident{Name: "tb_reset"}
		}
		if rng.Intn(3) == 0 {
			a.Label = "asrt"
		}
		first, err := ParseAssertion(a.String())
		if err != nil {
			return true
		}
		canonical := first.String()
		second, err := ParseAssertion(canonical)
		if err != nil {
			return false
		}
		return second.String() == canonical
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCloneIndependence: mutating a clone never changes the
// original's canonical form.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := &Assertion{ClockEdge: "posedge", ClockName: "clk", Body: randProp(rng, 2)}
		before := a.String()
		c := a.Clone()
		c.Body = &PropNot{P: c.Body}
		c.Label = "mutated"
		return a.String() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
