package mc

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// candidate is one distinct proxy response, elaborated against its
// instance's design the way the task judges do.
type candidate struct {
	sys     *rtl.System
	asserts []*sva.Assertion // Design2SVA: the system's assertions
	target  *sva.Assertion   // AGR: the stuck target...
	helpers []*sva.Assertion // ...and the parsed helper set
}

func splice(bench, snippet string) string {
	i := strings.LastIndex(bench, "endmodule")
	return bench[:i] + "\n" + snippet + "\n" + bench[i:]
}

func elaborate(design, bench, snippet, dut, top string) (*rtl.System, bool) {
	f, err := rtl.Parse(design + "\n" + splice(bench, snippet))
	if err != nil {
		return nil, false
	}
	sys, err := rtl.ElaborateBound(f, dut, top, nil)
	return sys, err == nil
}

// responses returns the distinct extracted responses of models to p.
func responses(models []llm.Model, p *llm.Prompt) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range models {
		for s := 0; s < 5; s++ {
			code := llm.ExtractCode(m.Generate(p, s))
			if !seen[code] {
				seen[code] = true
				out = append(out, code)
			}
		}
	}
	return out
}

func designCandidates(inst *rtlgen.Instance) []candidate {
	var out []candidate
	for _, code := range responses(llm.DesignModels(), llm.BuildDesignPrompt(inst)) {
		if sys, ok := elaborate(inst.Design, inst.Bench, code, inst.DUTTop, inst.BenchTop); ok && len(sys.Asserts) > 0 {
			out = append(out, candidate{sys: sys, asserts: sys.Asserts})
		}
	}
	return out
}

func helperCandidates(inst *helpergen.Instance) []candidate {
	sys, ok := elaborate(inst.Design, inst.Bench, inst.Target, inst.DUTTop, inst.BenchTop)
	if !ok {
		return nil
	}
	var out []candidate
	for _, code := range responses(llm.Models(), llm.BuildHelperPrompt(inst)) {
		var helpers []*sva.Assertion
		for _, stmt := range strings.Split(code, ";") {
			if a, err := sva.ParseAssertion(strings.TrimSpace(stmt) + ";"); err == nil && strings.Contains(stmt, "assert") {
				helpers = append(helpers, a)
			}
		}
		out = append(out, candidate{sys: sys, target: inst.TargetAst, helpers: helpers})
	}
	return out
}

// outcome is everything a check reports, solver counters included: a
// copied frame must be node-for-node the one a session would have
// built, so even the solver's work must match.
type outcome struct {
	res    Result
	lemmas []Lemma
	err    string
	stats  formal.Snapshot
}

// judge checks every candidate of one instance in order, with frames
// shared across all of them (nil: none), the way an engine row does.
func judge(cands []candidate, frames *Frames) []outcome {
	bank := formal.NewBank(0)
	var out []outcome
	for _, c := range cands {
		checks := c.asserts
		if c.target != nil {
			checks = []*sva.Assertion{c.target}
		}
		for _, a := range checks {
			st := &formal.Stats{}
			opt := Options{SimPatterns: 128, Bank: bank, Stats: st, Frames: frames}
			var o outcome
			var err error
			if c.target != nil {
				o.res, o.lemmas, err = CheckWithLemmas(c.sys, a, c.helpers, opt)
			} else {
				o.res, err = CheckAssertion(c.sys, a, opt)
			}
			if err != nil {
				o.err = err.Error()
			}
			o.stats = st.Snapshot()
			// Wall-clock figures vary run to run; GatesShared counts
			// only the sharing a session's own builder finds, and a
			// copied frame's internal sharing was found by its
			// template (see Options.Frames).
			o.stats.SolveWallNS, o.stats.SolveWallHist, o.stats.GatesShared = 0, [formal.SolveWallBucketCount]int64{}, 0
			out = append(out, o)
		}
	}
	return out
}

func compareOutcomes(t *testing.T, id string, got, want []outcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d checks with frames, %d without", id, len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.err != w.err || !reflect.DeepEqual(g.res, w.res) || !reflect.DeepEqual(g.lemmas, w.lemmas) || g.stats != w.stats {
			t.Errorf("%s check %d: with frames %+v, without %+v", id, i, g, w)
		}
	}
}

// TestFramesMatchDirectUnroll is the frame-template differential: over
// every Design2SVA instance and the proxy fleet's distinct snippets,
// checks copying frames from one shared Frames must report exactly
// what checks unrolling every frame themselves report — status, depth,
// boundedness, counterexample, solver counters.
func TestFramesMatchDirectUnroll(t *testing.T) {
	seen := map[Status]int{}
	for _, kind := range []string{"pipeline", "fsm"} {
		for _, inst := range rtlgen.Sweep96(kind) {
			cands := designCandidates(inst)
			want := judge(cands, nil)
			compareOutcomes(t, inst.ID, judge(cands, NewFrames()), want)
			for _, o := range want {
				seen[o.res.Status]++
			}
		}
	}
	if seen[Proven] == 0 || seen[Falsified] == 0 || seen[Unknown] == 0 {
		t.Fatalf("differential never saw some verdict: %v", seen)
	}
}

// TestFramesSharedAcrossLemmaChecks runs the AGR pipeline over every
// helpergen instance with one Frames shared across all candidate
// helper sets, against each CheckWithLemmas call using its own: the
// Lemma slices and the target verdicts must be identical.
func TestFramesSharedAcrossLemmaChecks(t *testing.T) {
	for _, inst := range helpergen.Sweep() {
		cands := helperCandidates(inst)
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates", inst.ID)
		}
		compareOutcomes(t, inst.ID, judge(cands, NewFrames()), judge(cands, nil))
	}
}

// TestFramesSeparateTransitionRelations checks the fingerprint: a
// snippet that adds a register changes the transition relation and
// must get templates of its own — as must one that only resets that
// register differently — while a snippet that only adds an assertion
// shares the design's.
func TestFramesSeparateTransitionRelations(t *testing.T) {
	inst := rtlgen.Sweep96("fsm")[0]
	sys := func(snippet string) *rtl.System {
		t.Helper()
		s, ok := elaborate(inst.Design, inst.Bench, snippet, inst.DUTTop, inst.BenchTop)
		if !ok {
			t.Fatalf("snippet does not elaborate:\n%s", snippet)
		}
		return s
	}
	withReg := func(reset string) *rtl.System {
		return sys(`reg seen;
always @(posedge clk) begin
  if (!reset_) seen <= ` + reset + `;
  else seen <= seen;
end
r: assert property (@(posedge clk) seen == 1'b0);`)
	}
	plain := sys(`a: assert property (@(posedge clk) 1'b1);`)
	other := sys(`b: assert property (@(posedge clk) 1'b1 |-> 1'b1);`)
	reset0, reset1 := withReg("1'b0"), withReg("1'b1")
	if len(reset0.Regs) != len(plain.Regs)+1 {
		t.Fatalf("snippet register not elaborated: %d vs %d registers", len(reset0.Regs), len(plain.Regs))
	}
	fs := NewFrames()
	for _, step := range []struct {
		name      string
		sys       *rtl.System
		templates int // one per initial-state mode and transition relation
	}{
		{"plain", plain, 2},
		{"other", other, 2},
		{"reset0", reset0, 4},
		{"reset1", reset1, 6},
	} {
		cands := []candidate{{sys: step.sys, asserts: step.sys.Asserts}}
		compareOutcomes(t, step.name, judge(cands, fs), judge(cands, nil))
		if len(fs.templates) != step.templates {
			t.Fatalf("%s: %d templates, want %d", step.name, len(fs.templates), step.templates)
		}
	}
}

// TestFramesUnrollErrorsSurface plants unroll failures in a register's
// next-state logic — a combinational loop and an undeclared
// identifier, which the elaborator would normally reject — and checks
// that every check reports the error a direct unroll raises, including
// checks that find the failed template already cached.
func TestFramesUnrollErrorsSurface(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(sys *rtl.System)
		want  string
	}{
		{"loop", func(sys *rtl.System) {
			n := &sys.Nets[len(sys.Nets)-1]
			n.Expr = &sva.Ident{Name: n.Name}
			sys.Regs[0].Next = &sva.Ident{Name: n.Name}
		}, "combinational loop"},
		{"undeclared", func(sys *rtl.System) {
			sys.Regs[0].Next = &sva.Ident{Name: "ghost"}
		}, "undeclared identifier"},
	} {
		sys := fsmSystem(t)
		tc.plant(sys)
		a := parseA(t, `assert property (@(posedge clk) fsm_out != 2'b11);`)
		live := parseA(t, `assert property (@(posedge clk) disable iff (!reset_) s_eventually (fsm_out == 2'b00));`)
		cover := parseA(t, `cover property (@(posedge clk) fsm_out == 2'b01);`)
		fs := NewFrames()
		for i := 0; i < 2; i++ {
			for _, check := range []func(Options) error{
				func(o Options) error { _, err := CheckAssertion(sys, a, o); return err },
				func(o Options) error { _, err := CheckAssertion(sys, live, o); return err },
				func(o Options) error { _, err := CheckCover(sys, cover, o); return err },
			} {
				direct, shared := check(Options{}), check(Options{Frames: fs})
				if direct == nil || !strings.Contains(direct.Error(), tc.want) {
					t.Fatalf("%s: direct unroll error %v, want %q", tc.name, direct, tc.want)
				}
				if shared == nil || shared.Error() != direct.Error() {
					t.Errorf("%s: with frames %v, without %v", tc.name, shared, direct)
				}
			}
		}
	}
}

// TestFramesPerGoroutine runs the differential from four goroutines,
// each with a cache of its own (run it with -race): a Frames is
// confined to its goroutine, and nothing else it touches is shared.
func TestFramesPerGoroutine(t *testing.T) {
	var insts []*rtlgen.Instance
	insts = append(insts, rtlgen.Sweep96("fsm")[:4]...)
	insts = append(insts, rtlgen.Sweep96("pipeline")[:4]...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs := NewFrames()
			for _, inst := range insts[2*g : 2*g+2] {
				cands := designCandidates(inst)
				compareOutcomes(t, inst.ID, judge(cands, fs), judge(cands, nil))
			}
		}()
	}
	wg.Wait()
}

// TestFramesSessionTablesUnchanged drives BMC and induction sessions
// depth by depth, with and without a shared Frames, and compares the
// sessions' node tables after every step: a session holds exactly the
// frames it asked for, so the prefilter's pass over the builder and
// the CNF's dense tables are as large as before, not larger.
func TestFramesSessionTablesUnchanged(t *testing.T) {
	var insts []*rtlgen.Instance
	insts = append(insts, rtlgen.Sweep96("fsm")[:6]...)
	insts = append(insts, rtlgen.Sweep96("pipeline")[:6]...)
	for _, inst := range insts {
		fs := NewFrames()
		for _, c := range designCandidates(inst) {
			for _, a := range c.asserts {
				f, err := ltl.LowerAssertion(a)
				if err != nil || ltl.HasUnbounded(f) {
					continue
				}
				d := ltl.Depth(f)
				for _, free := range []bool{false, true} {
					direct := newSafetySession(c.sys, f, a.DisableIff, nil, nil, d, free, Options{}.withDefaults())
					shared := newSafetySession(c.sys, f, a.DisableIff, nil, nil, d, free, Options{Frames: fs}.withDefaults())
					for k := 1; k <= 6; k++ {
						step := func(ss *safetySession) (bool, error) {
							if free {
								return ss.induct(k)
							}
							cex, err := ss.checkDepth(k)
							return cex != nil, err
						}
						dv, derr := step(direct)
						sv, serr := step(shared)
						if dv != sv || (derr == nil) != (serr == nil) {
							t.Fatalf("%s free=%v k=%d: verdict %v/%v, error %v/%v", inst.ID, free, k, dv, sv, derr, serr)
						}
						if direct.b.NumNodes() != shared.b.NumNodes() || direct.cnf.Encoded() != shared.cnf.Encoded() {
							t.Fatalf("%s free=%v k=%d: %d nodes, %d encoded without frames; %d, %d with", inst.ID, free, k,
								direct.b.NumNodes(), direct.cnf.Encoded(), shared.b.NumNodes(), shared.cnf.Encoded())
						}
						if dv || derr != nil {
							break
						}
					}
				}
			}
		}
	}
}
