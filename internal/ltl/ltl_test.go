package ltl

import (
	"slices"
	"testing"
	"testing/quick"

	"fveval/internal/bitvec"
	"fveval/internal/logic"
	"fveval/internal/sva"
)

func mustProp(t *testing.T, src string) sva.Property {
	t.Helper()
	a, err := sva.ParseAssertion("assert property (@(posedge clk) " + src + ");")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return a.Body
}

// mustExpr parses a bare expression as an assertion's disable-iff guard.
func mustExpr(t *testing.T, src string) sva.Expr {
	t.Helper()
	a, err := sva.ParseAssertion("assert property (@(posedge clk) disable iff (" + src + ") 1);")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return a.DisableIff
}

func TestFormulaConstructors(t *testing.T) {
	a := &FAtom{E: &sva.Ident{Name: "a"}}
	if And(True, a) != a || And(a, True) != a {
		t.Errorf("And identity broken")
	}
	if And(False, a) != False || Or(True, a) != True {
		t.Errorf("And/Or dominance broken")
	}
	if Or(False, a) != a {
		t.Errorf("Or identity broken")
	}
	if Not(Not(a)) != a {
		t.Errorf("double negation not collapsed")
	}
	if Next(0, a) != a {
		t.Errorf("Next(0) must be identity")
	}
	n := Next(2, Next(3, a))
	if x, ok := n.(*FNext); !ok || x.N != 5 {
		t.Errorf("nested Next must fuse: %v", n)
	}
}

func TestDepth(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"a", 0},
		{"a |-> ##2 b", 2},
		{"a |=> b", 1},
		{"a ##1 b |-> ##1 c", 2},
		{"a |-> strong(##[0:$] b)", 1},
		{"a until b", 1},
	}
	for _, c := range cases {
		f, err := LowerProperty(mustProp(t, c.src))
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := Depth(f); got != c.want {
			t.Errorf("Depth(%s) = %d, want %d (formula %s)", c.src, got, c.want, f)
		}
	}
}

func TestHasUnboundedAndUsesPast(t *testing.T) {
	f1, _ := LowerProperty(mustProp(t, "a |-> ##2 b"))
	if HasUnbounded(f1) {
		t.Errorf("bounded formula flagged unbounded")
	}
	f2, _ := LowerProperty(mustProp(t, "a |-> s_eventually b"))
	if !HasUnbounded(f2) {
		t.Errorf("eventually not flagged unbounded")
	}
	f3, _ := LowerProperty(mustProp(t, "$rose(a) |-> b"))
	if !UsesPast(f3) {
		t.Errorf("$rose not flagged as past")
	}
	if UsesPast(f1) {
		t.Errorf("plain formula flagged as past")
	}
}

func TestLoweringShapes(t *testing.T) {
	// |=> shifts by one.
	f, err := LowerProperty(mustProp(t, "a |=> b"))
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "(!(a) | X^1(b))" {
		t.Errorf("|=> lowered to %s", f)
	}
	// weak unbounded tail is vacuous.
	f, err = LowerProperty(mustProp(t, "##[1:$] b"))
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := f.(*FConst); !ok || !c.V {
		t.Errorf("weak unbounded tail should lower to true, got %s", f)
	}
	// strong unbounded tail becomes an eventuality.
	f, err = LowerProperty(mustProp(t, "strong(##[0:$] b)"))
	if err != nil {
		t.Fatal(err)
	}
	if !HasUnbounded(f) {
		t.Errorf("strong tail must be unbounded: %s", f)
	}
}

func TestLowerErrors(t *testing.T) {
	bad := []string{
		"(a ##[0:$] b) intersect c", // unbounded in combination
	}
	for _, src := range bad {
		a, err := sva.ParseAssertion("assert property (@(posedge clk) " + src + ");")
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := LowerProperty(a.Body); err == nil {
			t.Errorf("%s: expected lowering error", src)
		}
	}
}

func TestSignalNames(t *testing.T) {
	f, err := LowerProperty(mustProp(t, "(a && sig_B) |-> ##1 $past(zz)"))
	if err != nil {
		t.Fatal(err)
	}
	names := SignalNames(f)
	want := []string{"a", "sig_B", "zz"}
	if len(names) != len(want) {
		t.Fatalf("names: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names: %v want %v", names, want)
		}
	}
}

// concreteTraceEval evaluates a lowered formula on a concrete trace by
// building a lasso circuit and evaluating with fixed inputs.
func concreteTraceEval(t *testing.T, src string, trace map[string][]uint64, widths map[string]int, loop int) bool {
	t.Helper()
	b := logic.NewBuilder()
	env := NewTraceEnv(b, widths, nil)
	ev := &ExprEval{Ops: bitvec.Ops{B: b}, Env: env}
	f, err := LowerProperty(mustProp(t, src))
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	var k int
	for _, vals := range trace {
		k = len(vals)
	}
	le := NewLassoEval(ev, k, loop)
	truth, err := le.Truth(f, 0)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	assign := map[logic.Node]bool{}
	for name, vals := range trace {
		for pos, v := range vals {
			bv, err := env.Signal(name, pos)
			if err != nil {
				t.Fatalf("signal %s: %v", name, err)
			}
			for i, bit := range bv.Bits {
				assign[bit] = v&(1<<uint(i)) != 0
			}
		}
	}
	return b.Eval(truth, assign, nil)
}

func TestLassoConcreteSemantics(t *testing.T) {
	w := map[string]int{"a": 1, "b": 1}
	cases := []struct {
		src   string
		trace map[string][]uint64
		loop  int
		want  bool
	}{
		// a |-> ##2 b at position 0
		{"a |-> ##2 b", map[string][]uint64{
			"a": {1, 0, 0, 0}, "b": {0, 0, 1, 0}}, 3, true},
		{"a |-> ##2 b", map[string][]uint64{
			"a": {1, 0, 0, 0}, "b": {0, 1, 0, 0}}, 3, false},
		// vacuous antecedent
		{"a |-> ##2 b", map[string][]uint64{
			"a": {0, 0, 0, 0}, "b": {0, 0, 0, 0}}, 3, true},
		// eventually via loop: b true only inside the loop
		{"s_eventually b", map[string][]uint64{
			"a": {0, 0, 0, 0}, "b": {0, 0, 0, 1}}, 2, true},
		{"s_eventually b", map[string][]uint64{
			"a": {0, 0, 0, 0}, "b": {0, 0, 0, 0}}, 2, false},
		// globally
		{"always a", map[string][]uint64{
			"a": {1, 1, 1, 1}, "b": {0, 0, 0, 0}}, 0, true},
		{"always a", map[string][]uint64{
			"a": {1, 1, 0, 1}, "b": {0, 0, 0, 0}}, 0, false},
		// until: a holds until b
		{"a s_until b", map[string][]uint64{
			"a": {1, 1, 0, 0}, "b": {0, 0, 1, 0}}, 3, true},
		{"a s_until b", map[string][]uint64{
			"a": {1, 0, 0, 0}, "b": {0, 0, 1, 0}}, 3, false},
		// weak until satisfied by G a (loop keeps a true)
		{"a until b", map[string][]uint64{
			"a": {1, 1, 1, 1}, "b": {0, 0, 0, 0}}, 0, true},
		{"a s_until b", map[string][]uint64{
			"a": {1, 1, 1, 1}, "b": {0, 0, 0, 0}}, 0, false},
	}
	for _, c := range cases {
		got := concreteTraceEval(t, c.src, c.trace, w, c.loop)
		if got != c.want {
			t.Errorf("%s on %v loop=%d: got %v want %v", c.src, c.trace, c.loop, got, c.want)
		}
	}
}

func TestQuickBoundedPropertyAgreesWithDirectEval(t *testing.T) {
	// Property: for the bounded pattern a |-> ##d b, the lasso circuit
	// agrees with a direct check on random concrete traces.
	w := map[string]int{"a": 1, "b": 1}
	f := func(av, bv uint8, dRaw uint8) bool {
		d := int(dRaw % 3)
		k := 8
		trace := map[string][]uint64{"a": make([]uint64, k), "b": make([]uint64, k)}
		for i := 0; i < k; i++ {
			trace["a"][i] = uint64((av >> uint(i)) & 1)
			trace["b"][i] = uint64((bv >> uint(i)) & 1)
		}
		src := "a |-> ##" + string(rune('0'+d)) + " b"
		got := concreteTraceEval(t, src, trace, w, k-1)
		want := trace["a"][0] == 0 || trace["b"][d] == 1
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExprEvalWidthsAndConsts(t *testing.T) {
	b := logic.NewBuilder()
	env := NewTraceEnv(b, map[string]int{"x": 4}, map[string]ConstVal{
		"P": {Value: 5, Width: 4},
	})
	ev := &ExprEval{Ops: bitvec.Ops{B: b}, Env: env}
	n, err := ev.Bool(mustExpr(t, "x == P"), 0)
	if err != nil {
		t.Fatal(err)
	}
	bv, _ := env.Signal("x", 0)
	assign := map[logic.Node]bool{}
	for i, bit := range bv.Bits {
		assign[bit] = 5&(1<<uint(i)) != 0
	}
	if !b.Eval(n, assign, nil) {
		t.Errorf("x==P must hold for x=5")
	}
	// $bits is a compile-time constant
	n2, err := ev.Bool(mustExpr(t, "$bits(x) == 4"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != logic.True {
		t.Errorf("$bits(x)==4 must fold to true, got %v", n2)
	}
}

func TestUndeclaredIdentifier(t *testing.T) {
	b := logic.NewBuilder()
	env := NewTraceEnv(b, map[string]int{"x": 1}, nil)
	ev := &ExprEval{Ops: bitvec.Ops{B: b}, Env: env}
	if _, err := ev.Bool(mustExpr(t, "ghost"), 0); err == nil {
		t.Fatal("expected elaboration error")
	}
}

// TestClog2 pins $clog2 at the edges, including arguments above 2^63,
// where a doubling loop overflows to 0 and never terminates.
func TestClog2(t *testing.T) {
	for _, c := range []struct {
		x    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1 << 63, 63}, {1<<63 + 1, 64}, {1<<64 - 1, 64},
	} {
		if got := Clog2(c.x); got != c.want {
			t.Errorf("Clog2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestReachFollowsTheLasso: Reach lists the positions a walk along the
// lasso visits from i, each once, in the order it first visits them.
func TestReachFollowsTheLasso(t *testing.T) {
	for k := 1; k <= 8; k++ {
		for l := 0; l < k; l++ {
			le := &LassoEval{K: k, L: l}
			for i := 0; i < k; i++ {
				var want []int
				seen := make([]bool, k)
				for j, n := i, 0; n < 2*k; j, n = le.succ(j), n+1 {
					if !seen[j] {
						seen[j] = true
						want = append(want, j)
					}
				}
				if got := le.Reach(i); !slices.Equal(got, want) {
					t.Errorf("K=%d L=%d: Reach(%d) = %v, want %v", k, l, i, got, want)
				}
			}
		}
	}
}
