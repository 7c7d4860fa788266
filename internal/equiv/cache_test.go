package equiv

import (
	"sync"
	"testing"

	"fveval/internal/formal"
	"fveval/internal/sva"
)

func mustParseCT(t *testing.T, src string) *sva.Assertion {
	t.Helper()
	a, err := sva.ParseAssertion(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCacheHitsOnRepeatAndLabelVariants(t *testing.T) {
	a := mustParseCT(t, "assert property (@(posedge clk) a |=> b);")
	b := mustParseCT(t, "assert property (@(posedge clk) a |-> ##1 b);")
	labeled := mustParseCT(t, "chk_1: assert property (@(posedge clk) a |=> b);")
	sigs := &Sigs{Widths: map[string]int{"clk": 1, "a": 1, "b": 1}}

	c := NewCache()
	r1, err := c.Check(a, b, sigs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Verdict != Equivalent {
		t.Fatalf("verdict: %v", r1.Verdict)
	}
	// identical query: hit
	r2, err := c.Check(a, b, sigs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// label-only variant: labels carry no semantics, must hit too
	r3, err := c.Check(labeled, b, sigs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Verdict != r1.Verdict || r3.Verdict != r1.Verdict {
		t.Fatalf("cached verdict drifted: %v / %v / %v", r1.Verdict, r2.Verdict, r3.Verdict)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if c.Len() != 1 {
		t.Fatalf("len: %d", c.Len())
	}
}

func TestCacheKeySeparatesDifferentQueries(t *testing.T) {
	a := mustParseCT(t, "assert property (@(posedge clk) a |=> b);")
	b := mustParseCT(t, "assert property (@(posedge clk) a |-> ##1 b);")
	c2 := mustParseCT(t, "assert property (@(posedge clk) a |-> ##2 b);")
	sigs := &Sigs{Widths: map[string]int{"clk": 1, "a": 1, "b": 1}}
	wide := &Sigs{Widths: map[string]int{"clk": 1, "a": 4, "b": 4}}

	c := NewCache()
	if _, err := c.Check(a, b, sigs, Options{}); err != nil {
		t.Fatal(err)
	}
	// different pair, different widths, different budget: all distinct entries
	if _, err := c.Check(a, c2, sigs, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check(a, b, wide, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check(a, b, sigs, Options{Search: formal.Search{Budget: 5000}}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("expected 4 distinct queries, got %+v", st)
	}
}

func TestCacheMatchesUncachedVerdicts(t *testing.T) {
	pairs := [][2]string{
		{"assert property (@(posedge clk) a |=> b);", "assert property (@(posedge clk) a |-> ##1 b);"},
		{"assert property (@(posedge clk) a |-> b);", "assert property (@(posedge clk) a |-> ##1 b);"},
		{"assert property (@(posedge clk) a && b);", "assert property (@(posedge clk) a);"},
		{"assert property (@(posedge clk) !a || b);", "assert property (@(posedge clk) a |-> b);"},
	}
	sigs := &Sigs{Widths: map[string]int{"clk": 1, "a": 1, "b": 1}}
	c := NewCache()
	for _, p := range pairs {
		a, b := mustParseCT(t, p[0]), mustParseCT(t, p[1])
		want, err := Check(a, b, sigs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // second round served from cache
			got, err := c.Check(a, b, sigs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Verdict != want.Verdict {
				t.Fatalf("%q vs %q: cached %v, uncached %v", p[0], p[1], got.Verdict, want.Verdict)
			}
		}
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	a := mustParseCT(t, "assert property (@(posedge clk) a |=> b);")
	b := mustParseCT(t, "assert property (@(posedge clk) a |-> ##1 b);")
	sigs := &Sigs{Widths: map[string]int{"clk": 1, "a": 1, "b": 1}}
	var c *Cache
	res, err := c.Check(a, b, sigs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict: %v", res.Verdict)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("nil cache must not count: %+v", st)
	}
	if c.Len() != 0 {
		t.Fatalf("nil cache len: %d", c.Len())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	a := mustParseCT(t, "assert property (@(posedge clk) a |=> b);")
	b := mustParseCT(t, "assert property (@(posedge clk) a |-> ##1 b);")
	sigs := &Sigs{Widths: map[string]int{"clk": 1, "a": 1, "b": 1}}
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := c.Check(a, b, sigs, Options{})
				if err != nil || res.Verdict != Equivalent {
					t.Errorf("concurrent check: %v %v", res.Verdict, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 160 {
		t.Fatalf("lost queries: %+v", st)
	}
	if c.Len() != 1 {
		t.Fatalf("len: %d", c.Len())
	}
}
