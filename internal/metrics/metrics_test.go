package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBLEUIdentity(t *testing.T) {
	s := "assert property (@(posedge clk) a |-> ##2 b);"
	if got := BLEU(s, s); got < 0.999 {
		t.Fatalf("self-BLEU = %f, want 1.0", got)
	}
}

func TestBLEUOrdering(t *testing.T) {
	ref := "assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> strong(##[0:$] rd_pop));"
	close1 := "assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> ##[1:$] rd_pop);"
	far := "x + y"
	b1 := BLEU(close1, ref)
	b2 := BLEU(far, ref)
	if !(b1 > b2) {
		t.Fatalf("BLEU ordering broken: close=%f far=%f", b1, b2)
	}
	if b1 <= 0 || b1 >= 1 {
		t.Fatalf("close BLEU out of range: %f", b1)
	}
}

func TestBLEUEmpty(t *testing.T) {
	if BLEU("", "a b c") != 0 || BLEU("a b c", "") != 0 {
		t.Fatalf("empty inputs must score 0")
	}
}

func TestCodeTokens(t *testing.T) {
	toks := CodeTokens("a |-> ##2 (b && c)")
	want := []string{"a", "|->", "##", "2", "(", "b", "&&", "c", ")"}
	if len(toks) != len(want) {
		t.Fatalf("tokens: %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d: %q want %q", i, toks[i], want[i])
		}
	}
}

func TestPassAtKKnownValues(t *testing.T) {
	cases := []struct {
		n, c, k int
		want    float64
	}{
		{5, 0, 1, 0},
		{5, 5, 1, 1},
		{5, 1, 1, 0.2},
		{5, 1, 5, 1},
		{10, 3, 1, 0.3},
		{2, 1, 2, 1},
	}
	for _, c := range cases {
		got := PassAtK(c.n, c.c, c.k)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("PassAtK(%d,%d,%d) = %f want %f", c.n, c.c, c.k, got, c.want)
		}
	}
}

func TestPassAtKProperties(t *testing.T) {
	f := func(nRaw, cRaw, kRaw uint8) bool {
		n := 1 + int(nRaw%10)
		c := int(cRaw) % (n + 1)
		k := 1 + int(kRaw)%n
		p := PassAtK(n, c, k)
		if p < 0 || p > 1 {
			return false
		}
		// monotone in c
		if c > 0 && PassAtK(n, c-1, k) > p+1e-12 {
			return false
		}
		// monotone in k
		if k > 1 && PassAtK(n, c, k-1) > p+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPassAtKOutOfRange pins the estimator's precondition: a cut-off
// outside 1..n is a caller bug, not a request for pass@n.
func TestPassAtKOutOfRange(t *testing.T) {
	for _, c := range []struct{ n, k int }{{3, 5}, {1, 2}, {5, 0}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PassAtK(%d, 0, %d) did not panic", c.n, c.k)
				}
			}()
			PassAtK(c.n, 0, c.k)
		}()
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect correlation: %f", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-9 {
		t.Fatalf("perfect anticorrelation: %f", got)
	}
	if got := Pearson(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Fatalf("zero variance: %f", got)
	}
}

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 {
		t.Fatalf("empty must be 0")
	}
	short := CountTokens("a && b")
	long := CountTokens("assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> strong(##[0:$] rd_pop));")
	if !(long > short) {
		t.Fatalf("token counts must grow with text: %d vs %d", short, long)
	}
	// identifiers split into subwords
	one := CountTokens("ab")
	big := CountTokens("abcdefghijklmnop")
	if !(big > one) {
		t.Fatalf("long identifiers must cost more tokens")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5)
	total := 0
	for _, c := range h.Buckets {
		total += c
	}
	if total != 10 {
		t.Fatalf("histogram loses mass: %d", total)
	}
	if h.Render() == "" {
		t.Fatalf("histogram must render")
	}
}
