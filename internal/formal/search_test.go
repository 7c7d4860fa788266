package formal

import (
	"testing"

	"fveval/internal/logic"
	"fveval/internal/obs"
)

// spanNames opens a traced check on ss, runs query on it and returns
// the names of the spans the check recorded under its parent.
func spanNames(t *testing.T, ss *Session, opt Search, query func(*Obligation)) map[string]int {
	t.Helper()
	rec := obs.NewRecorder(0)
	root := rec.Start("check", 0)
	opt.Span = root
	ob := ss.Open(opt)
	query(ob)
	ob.Close(false)
	root.End()
	spans, _ := rec.Snapshot()
	names := map[string]int{}
	for _, d := range spans {
		if d.Parent == root.ID() {
			names[d.Name]++
		}
	}
	return names
}

func TestFindReportsFirstSatisfiedTarget(t *testing.T) {
	for _, sim := range []int{0, 64} {
		ss := NewSession()
		a, b := ss.B.Input(), ss.B.Input()
		cols := []Column{{Name: "a", Bits: []logic.Node{a}}, {Name: "b", Bits: []logic.Node{b}}}
		ob := ss.Open(Search{SimPatterns: sim})
		ob.Constrain(a.Not())
		// a is ruled out; the trace then has b set, so both later
		// targets hold and the first of them is reported.
		i, p, err := ob.Find("q", 1, cols, nil, true, a, ss.B.And(b, a.Not()), b)
		if err != nil || i != 1 {
			t.Fatalf("SimPatterns=%d: Find = %d, %v; want target 1", sim, i, err)
		}
		if p.Vals["a"][0] != 0 || p.Vals["b"][0] != 1 {
			t.Fatalf("SimPatterns=%d: trace %v violates the query", sim, p.Vals)
		}
		if i, _, err := ob.Find("q", 1, cols, nil, true, a); err != nil || i != -1 {
			t.Fatalf("SimPatterns=%d: unsatisfiable target: Find = %d, %v; want -1", sim, i, err)
		}
		ob.Close(false)
	}
}

func TestFindSpans(t *testing.T) {
	ss := NewSession()
	a, hidden := ss.B.Input(), ss.B.Input()
	cols := []Column{{Name: "a", Bits: []logic.Node{a}}}
	opt := Search{SimPatterns: 64}
	// Random lanes set a: the prefilter decides, the solver is not asked.
	hit := spanNames(t, ss, opt, func(ob *Obligation) {
		if i, _, err := ob.Find("bmc", 1, cols, nil, false, a); i != 0 || err != nil {
			t.Fatalf("Find = %d, %v", i, err)
		}
	})
	if hit["sim"] != 1 || len(hit) != 1 {
		t.Fatalf("prefilter hit recorded %v, want one sim span", hit)
	}
	// No column assigns hidden, so every lane misses and the solver
	// answers under the query's name.
	miss := spanNames(t, ss, opt, func(ob *Obligation) {
		if i, _, err := ob.Find("bmc", 1, cols, nil, false, hidden); i != 0 || err != nil {
			t.Fatalf("Find = %d, %v", i, err)
		}
	})
	if miss["sim"] != 1 || miss["bmc"] != 1 || len(miss) != 2 {
		t.Fatalf("prefilter miss recorded %v, want one sim and one bmc span", miss)
	}
	// Without the prefilter only the solver span remains.
	off := spanNames(t, ss, Search{}, func(ob *Obligation) {
		if i, _, err := ob.Find("bmc", 1, cols, nil, false, hidden); i != 0 || err != nil {
			t.Fatalf("Find = %d, %v", i, err)
		}
	})
	if off["bmc"] != 1 || len(off) != 1 {
		t.Fatalf("unfiltered query recorded %v, want one bmc span", off)
	}
}

func TestFindDecodes(t *testing.T) {
	ss := NewSession()
	a, hidden := ss.B.Input(), ss.B.Input()
	cols := []Column{{Name: "a", Bits: []logic.Node{a}}}
	traced := []Column{{Name: "a", Bits: []logic.Node{a}}, {Name: "hidden", Bits: []logic.Node{hidden}}}
	calls := 0
	trace := func() ([]Column, int) { calls++; return traced, 1 }
	bank := NewBank(0)
	ob := ss.Open(Search{SimPatterns: 64, Bank: bank})
	defer ob.Close(false)

	// A lane hit the caller does not keep is not decoded at all.
	if i, p, err := ob.Find("q", 1, cols, trace, false, a); i != 0 || err != nil || p.Vals != nil || calls != 0 {
		t.Fatalf("unkept lane hit: Find = %d, %v, %v after %d trace calls", i, p.Vals, err, calls)
	}
	// Kept, it is decoded over the trace's columns but not banked.
	i, p, err := ob.Find("q", 1, cols, trace, true, a)
	if i != 0 || err != nil || calls != 1 || p.Len != 1 || p.Vals["a"][0] != 1 {
		t.Fatalf("kept lane hit: Find = %d, %+v, %v after %d trace calls", i, p, err, calls)
	}
	if bank.Len() != 0 {
		t.Fatalf("a prefilter lane reached the bank")
	}
	// A SAT model goes into the bank even when the caller keeps no
	// trace, decoded over the trace's columns.
	if i, _, err := ob.Find("q", 1, cols, trace, false, hidden); i != 0 || err != nil {
		t.Fatalf("model: Find = %d, %v", i, err)
	}
	pats := bank.Patterns(1)
	if len(pats) != 1 || pats[0].Vals["hidden"][0] != 1 {
		t.Fatalf("bank holds %+v, want the model with hidden set", pats)
	}
}
