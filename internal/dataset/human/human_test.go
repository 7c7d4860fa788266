package human

import (
	"testing"

	"fveval/internal/equiv"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

func TestTable6Composition(t *testing.T) {
	want := map[string][2]int{
		"1R1W FIFO":       {4, 20},
		"Multi-Port FIFO": {1, 6},
		"Arbiter":         {4, 37},
		"FSM":             {2, 4},
		"Counter":         {1, 5},
		"RAM":             {1, 7},
	}
	got := Stats()
	for cat, w := range want {
		if got[cat] != w {
			t.Errorf("%s: got %v want %v", cat, got[cat], w)
		}
	}
	total := 0
	for _, v := range got {
		total += v[1]
	}
	if total != 79 {
		t.Fatalf("total pairs %d, want 79", total)
	}
	if len(Testbenches()) != 13 {
		t.Fatalf("testbenches %d, want 13", len(Testbenches()))
	}
}

func TestUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, tb := range Testbenches() {
		for _, p := range tb.Pairs {
			if seen[p.ID] {
				t.Errorf("duplicate pair id %s", p.ID)
			}
			seen[p.ID] = true
		}
	}
}

func TestTestbenchesElaborate(t *testing.T) {
	for _, tb := range Testbenches() {
		f, err := rtl.Parse(tb.Source)
		if err != nil {
			t.Errorf("%s: parse: %v", tb.Name, err)
			continue
		}
		if _, err := rtl.Elaborate(f, tb.Top, nil); err != nil {
			t.Errorf("%s: elaborate: %v", tb.Name, err)
		}
	}
}

// Sigs derives the equivalence-checking environment from a testbench.
func testbenchSigs(t *testing.T, tb *Testbench) *equiv.Sigs {
	t.Helper()
	f, err := rtl.Parse(tb.Source)
	if err != nil {
		t.Fatalf("%s: %v", tb.Name, err)
	}
	sys, err := rtl.Elaborate(f, tb.Top, nil)
	if err != nil {
		t.Fatalf("%s: %v", tb.Name, err)
	}
	w, c := sys.Sigs()
	return &equiv.Sigs{Widths: w, Consts: c}
}

func TestReferencesValidAndSelfEquivalent(t *testing.T) {
	for _, tb := range Testbenches() {
		sigs := testbenchSigs(t, tb)
		for _, p := range tb.Pairs {
			a, err := sva.ParseAssertion(p.Reference)
			if err != nil {
				t.Errorf("%s: parse reference: %v", p.ID, err)
				continue
			}
			if err := sva.Validate(a); err != nil {
				t.Errorf("%s: validate: %v", p.ID, err)
				continue
			}
			// every referenced signal resolves in the testbench env
			f, err := ltl.LowerAssertion(a)
			if err != nil {
				t.Errorf("%s: lower: %v", p.ID, err)
				continue
			}
			for _, name := range ltl.SignalNames(f) {
				_, isSig := sigs.Widths[name]
				_, isConst := sigs.Consts[name]
				if !isSig && !isConst {
					t.Errorf("%s: reference uses undeclared %q", p.ID, name)
				}
			}
			// reflexive equivalence sanity through the full checker
			res, err := equiv.Check(a, a, sigs, equiv.Options{})
			if err != nil {
				t.Errorf("%s: equivalence check: %v", p.ID, err)
				continue
			}
			if res.Verdict != equiv.Equivalent {
				t.Errorf("%s: reference not self-equivalent: %v", p.ID, res.Verdict)
			}
		}
	}
}

func TestNLMentionsReferencedSignals(t *testing.T) {
	// Specifications follow the house style of naming the signals to
	// use; sanity-check the hint text is present.
	for _, tb := range Testbenches() {
		for _, p := range tb.Pairs {
			if p.NL == "" {
				t.Errorf("%s: empty NL", p.ID)
			}
			if len(p.NL) < 20 {
				t.Errorf("%s: suspiciously short NL %q", p.ID, p.NL)
			}
		}
	}
}
