package mc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/logic"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// TestSymbolicMatchesConcreteSimulation cross-checks the symbolic
// frame unrolling (used for proofs) against the concrete interpreter
// (used for reset computation) on random input traces of random
// generated designs: pinning the symbolic inputs to the concrete trace
// must reproduce the concrete register states at every frame.
func TestSymbolicMatchesConcreteSimulation(t *testing.T) {
	srcs := []struct{ name, src, top string }{
		{"fsm", fsmSrc, "fsm"},
		{"ctr", `
module ctr(clk, reset_, en, cnt);
input clk;
input reset_;
input en;
output reg [3:0] cnt;
wire wrap;
assign wrap = (cnt == 4'd11);
always @(posedge clk) begin
  if (!reset_) cnt <= 'd0;
  else if (en) begin
    if (wrap) cnt <= 'd0;
    else cnt <= cnt + 'd1;
  end
end
endmodule`, "ctr"},
		{"shift", `
module sh(clk, reset_, din, q);
input clk;
input reset_;
input [1:0] din;
output reg [5:0] q;
always @(posedge clk) begin
  if (!reset_) q <= 'd0;
  else q <= {q[3:0], din};
end
endmodule`, "sh"},
	}
	for _, cfg := range srcs {
		t.Run(cfg.name, func(t *testing.T) {
			f, err := rtl.Parse(cfg.src)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := rtl.Elaborate(f, cfg.top, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			const frames = 6
			// random concrete input trace (reset held off)
			trace := make([]map[string]uint64, frames)
			for p := range trace {
				in := map[string]uint64{}
				for _, s := range sys.Inputs {
					in[s.Name] = rng.Uint64() & ((1 << uint(s.Width)) - 1)
				}
				in["reset_"] = 1
				trace[p] = in
			}
			// concrete run
			interp := rtl.NewInterp(sys)
			concrete := make([]map[string]uint64, frames)
			for p := 0; p < frames; p++ {
				vals, err := interp.Peek(trace[p])
				if err != nil {
					t.Fatal(err)
				}
				st := map[string]uint64{}
				for _, r := range sys.Regs {
					st[r.Name] = vals[r.Name]
				}
				concrete[p] = st
				if _, err := interp.Step(trace[p]); err != nil {
					t.Fatal(err)
				}
			}
			// symbolic run pinned to the same inputs, decoded through the
			// core's model decode
			ss := newSafetySession(sys, false)
			fe := ss.fe
			if err := fe.unroll(frames); err != nil {
				t.Fatal(err)
			}
			ob := ss.Open(formal.Search{})
			ops := bitvec.Ops{B: ss.B}
			pin := logic.True
			for p := 0; p < frames; p++ {
				for _, in := range sys.Inputs {
					bv, err := fe.Signal(in.Name, p)
					if err != nil {
						t.Fatal(err)
					}
					pin = ss.B.And(pin, ops.Eq(bv, bitvec.Const(trace[p][in.Name], in.Width)))
				}
			}
			// Registers are built on demand: read every one at every
			// frame, so the decode below covers each (register, frame).
			for p := 0; p < frames; p++ {
				for _, r := range sys.Regs {
					if _, err := fe.Signal(r.Name, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			cols := ss.frameColumns(frames)
			decoded := map[sigPos]bool{}
			for _, c := range cols {
				decoded[sigPos{c.Name, c.Pos}] = true
			}
			i, w, err := ob.Find("bmc", frames, nil, func() ([]formal.Column, int) { return cols, frames }, true, pin)
			if err != nil || i != 0 {
				t.Fatalf("pinned trace must be satisfiable: %d %v", i, err)
			}
			for p := 0; p < frames; p++ {
				for _, r := range sys.Regs {
					if !decoded[sigPos{r.Name, p}] {
						t.Fatalf("frame %d reg %s: not decoded", p, r.Name)
					}
					got := w.Vals[r.Name][p]
					want := concrete[p][r.Name]
					if got != want {
						t.Fatalf("frame %d reg %s: symbolic %d concrete %d",
							p, r.Name, got, want)
					}
				}
			}
		})
	}
}

// TestPrefilterVsSolverCrossCheck fuzzes the simulation prefilter
// against the pure-SAT safety checker on generated designs: the
// ground-truth assertions (proven), their mutated variants (mostly
// falsified), and negations must produce identical Status and Depth
// with the prefilter on and off, sharing one pattern bank across the
// corpus the way an engine run does.
func TestPrefilterVsSolverCrossCheck(t *testing.T) {
	bank := formal.NewBank(0)
	var st formal.Stats
	seen := map[formal.Class]int{}
	compare := func(sys *rtl.System, src, tag string) {
		t.Helper()
		a, err := sva.ParseAssertion(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tag, err)
		}
		got, err1 := NewDesign().CheckAssertion(sys, a, Options{Search: formal.Search{SimPatterns: 128, Bank: bank, Stats: &st}})
		want, err2 := NewDesign().CheckAssertion(sys, a, Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error disagreement: prefilter=%v solver=%v\n%s", tag, err1, err2, src)
		}
		if err1 != nil {
			return
		}
		if got.Class != want.Class || got.Depth != want.Depth {
			t.Fatalf("%s: disagreement: prefilter=%v@%d solver=%v@%d\n%s",
				tag, got.Class, got.Depth, want.Class, want.Depth, src)
		}
		if got.Class == formal.Falsified && got.Cex == nil {
			t.Fatalf("%s: falsified without a counterexample", tag)
		}
		seen[got.Class]++
	}

	for seed := int64(1); seed <= 4; seed++ {
		inst := rtlgen.GenerateFSM(rtlgen.FSMParams{States: 5, Edges: 8, Width: 8, Complexity: 2, Seed: seed})
		f, err := rtl.Parse(inst.Design + "\n" + inst.Bench)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
		if err != nil {
			t.Fatal(err)
		}
		succ := inst.FSM.Succ[0]
		body := "fsm_out == S0 |=> ("
		for i, tr := range succ {
			if i > 0 {
				body += " || "
			}
			body += "fsm_out == S" + fmt.Sprint(tr)
		}
		body += ")"
		head := "assert property (@(posedge clk) disable iff (tb_reset) "
		compare(sys, head+body+");", "ground-truth")
		// A state the FSM can leave: claiming it is a sink is falsified.
		compare(sys, head+"fsm_out == S0 |=> fsm_out == S0);", "sink-claim")
		// A reachable-state exclusion must falsify quickly.
		compare(sys, head+"fsm_out != S0);", "excluded-state")
		// Trivial tautology and contradiction exercise the constant
		// paths of the prefilter.
		compare(sys, head+"1'b1);", "tautology")
		compare(sys, head+"fsm_out == S0 |-> 1'b0);", "contradiction")
	}
	if len(seen) < 2 {
		t.Fatalf("fuzz corpus too narrow: statuses seen = %v", seen)
	}
	if st.Snapshot().Sim.Refutations == 0 {
		t.Fatal("prefilter never refuted anything; the cross-check is vacuous")
	}
}

// TestGeneratedDesignsProveGroundTruth sweeps a sample of generated
// instances from both categories and proves the generator's own
// ground-truth assertions — the provability contract behind the
// Design2SVA Func metric.
func TestGeneratedDesignsProveGroundTruth(t *testing.T) {
	// handled at core level for FSMs; here prove pipelines' latency.
	for seed := int64(1); seed <= 4; seed++ {
		src := fmt.Sprintf(`
module pipe(clk, reset_, in_vld, out_vld);
input clk;
input reset_;
input in_vld;
output out_vld;
reg [%d:0] r;
always @(posedge clk) begin
  if (!reset_) r <= 'd0;
  else r <= {r[%d:0], in_vld};
end
assign out_vld = r[%d];
endmodule`, seed, seed-1, seed)
		f, err := rtl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := rtl.Elaborate(f, "pipe", nil)
		if err != nil {
			t.Fatal(err)
		}
		res := check(t, sys, fmt.Sprintf(
			`assert property (@(posedge clk) disable iff (!reset_) in_vld |-> ##%d out_vld);`,
			seed+1))
		if res.Class != formal.Proven {
			t.Errorf("depth %d latency: %v", seed+1, res.Class)
		}
	}

	// A generated FSM's ground-truth successor assertion for S0 is
	// proven at every induction depth cap, shallow ones included.
	inst := rtlgen.GenerateFSM(rtlgen.FSMParams{States: 6, Edges: 10, Width: 16, Complexity: 3, Seed: 77})
	f, err := rtl.Parse(inst.Design + "\n" + inst.Bench)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
	if err != nil {
		t.Fatal(err)
	}
	succ := make([]string, len(inst.FSM.Succ[0]))
	for i, s := range inst.FSM.Succ[0] {
		succ[i] = fmt.Sprintf("fsm_out == S%d", s)
	}
	a, err := sva.ParseAssertion("assert property (@(posedge clk) disable iff (tb_reset) fsm_out == S0 |=> (" +
		strings.Join(succ, " || ") + "));")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 5, 10} {
		res, err := NewDesign().CheckAssertion(sys, a, Options{MaxInduction: k})
		if err != nil {
			t.Fatalf("MaxInduction %d: %v", k, err)
		}
		if res.Class != formal.Proven {
			t.Errorf("MaxInduction %d: S0 successors %v, want proven", k, res.Class)
		}
	}
}

// TestCexReportsOnlyBuiltPairs checks that a counterexample holds a
// value only for what the checker built: registers are unrolled on
// demand, and a (register, frame) pair outside every query's cone has
// no entry rather than a zero. The 2-bit counter d reaches 3 at frame
// 3; the chain registers a, b and c are outside its cone, so past
// frame 1 (built for every register, to surface next-state errors)
// they must not appear.
func TestCexReportsOnlyBuiltPairs(t *testing.T) {
	f, err := rtl.Parse(strings.Replace(chainSrc, "output reg c;", `output reg c;
output reg [1:0] d;
always @(posedge clk) begin
  if (!reset_) d <= 2'd0;
  else d <= d + 2'd1;
end`, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rtl.Elaborate(f, "chain", nil)
	if err != nil {
		t.Fatal(err)
	}
	design := NewDesign()
	res, err := design.CheckAssertion(sys, parseA(t, "assert property (@(posedge clk) d != 2'd3);"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != formal.Falsified || res.Cex == nil || len(res.Cex.Frames) < 4 {
		t.Fatalf("d != 3: %v at depth %d, want a counterexample of at least 4 frames", res.Class, res.Depth)
	}
	for p, frame := range res.Cex.Frames {
		for name := range frame {
			if _, isReg := sys.RegByName(name); !isReg {
				continue
			}
			if _, built := design.base.fe.states[sigPos{name, p}]; !built {
				t.Errorf("frame %d: the counterexample reports register %s, which was never built", p, name)
			}
		}
	}
	if got := res.Cex.Frames[3]["d"]; got != 3 {
		t.Errorf("frame 3: d = %d, want 3", got)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, ok := res.Cex.Frames[1][name]; !ok {
			t.Errorf("frame 1: register %s missing; frame 1 is built for every register", name)
		}
		if v, ok := res.Cex.Frames[3][name]; ok {
			t.Errorf("frame 3: register %s = %d reported outside the property's cone", name, v)
		}
	}
}
