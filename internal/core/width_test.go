package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fveval/internal/equiv"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/llm"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
)

// TestWideVectorsAreElabFailures pins the width bound on inputs that
// used to exhaust a judge: a replication in an NL2SVA candidate (which
// bit-blasted count × width nodes) and one in a Design2SVA snippet
// (which the reset-state interpreter looped over count times), plus the
// other ways model text sizes a vector. All now fail elaboration,
// scoring as a syntax failure.
func TestWideVectorsAreElabFailures(t *testing.T) {
	in := LoadMachine(2)[1]
	for _, expr := range []string{
		"{100000{sig_A}} != 0",
		"{1000000{sig_A}} != 0",
		"{18446744073709551615{sig_A}} != 0",
		"{{40000{sig_A}}, {40000{sig_A}}} != 0",
		"10000000'd0 != sig_A",
		"sig_A[10000000:0] != 0",
	} {
		start := time.Now()
		o := JudgeTranslation(in.ID, "assert property (@(posedge clk) "+expr+");", in.Reference, in.Sigs, equiv.Options{}, nil)
		if o.Syntax || o.Full || o.Partial {
			t.Fatalf("%s: %+v, want an elaboration failure", expr, o)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s took %v", expr, d)
		}
	}
	// The cap itself still elaborates.
	o := JudgeTranslation(in.ID, "assert property (@(posedge clk) {1{sig_A}} != {65536{1'b0}});", in.Reference, in.Sigs, equiv.Options{}, nil)
	if !o.Syntax {
		t.Fatalf("a %d-bit replication must elaborate: %+v", ltl.MaxWidth, o)
	}

	inst := rtlgen.Sweep96("pipeline")[0]
	for _, snippet := range []string{
		"logic [7:0] w; assign w = {2000000000{1'b1}};",
		"logic [7:0] w; assign w = {18446744073709551615{1'b1}};",
		"logic [7:0] w; assign w = {{40000{1'b1}}, {40000{1'b0}}};",
		"logic [999999:0] w; assign w = 0;",
		"logic [999:0][999:0] w; assign w = 0;",
	} {
		start := time.Now()
		row := NewDesignRow(inst)
		var ee *rtl.ElabError
		if _, err := row.system(snippet); !errors.As(err, &ee) {
			t.Fatalf("%s: overlay elaboration returned %v, want an elaboration error", snippet, err)
		}
		if _, err := row.wholeFile(snippet); !errors.As(err, &ee) {
			t.Fatalf("%s: whole-file elaboration returned %v, want an elaboration error", snippet, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s took %v", snippet, d)
		}
	}
}

// TestClog2OfHugeConstantsTerminates pins $clog2 of a constant above
// 2^63, which used to spin forever (1<<64 is 0 in uint64, so the
// doubling loop never passed the argument): once in an NL2SVA
// candidate, once in a Design2SVA declaration width. Each probe runs
// under a deadline so a regression fails instead of hanging the suite.
func TestClog2OfHugeConstantsTerminates(t *testing.T) {
	within := func(name string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5s", name)
		}
	}

	in := LoadMachine(2)[1]
	within("NL2SVA candidate", func() error {
		code := "assert property (@(posedge clk) $clog2(64'hFFFFFFFFFFFFFFFF) == 64);"
		if o := JudgeTranslation(in.ID, code, in.Reference, in.Sigs, equiv.Options{}, nil); !o.Syntax {
			return fmt.Errorf("%+v, want a candidate that elaborates", o)
		}
		return nil
	})

	inst := rtlgen.Sweep96("pipeline")[0]
	within("Design2SVA snippet", func() error {
		row := NewDesignRow(inst)
		if _, err := row.system(clog2Snippet); err != nil {
			return err
		}
		_, err := row.wholeFile(clog2Snippet)
		return err
	})
}

// clog2Snippet declares a vector sized by $clog2 of 2^64-1, which is 64.
const clog2Snippet = "logic [$clog2(64'hFFFFFFFFFFFFFFFF):0] w;"

// FuzzDesignSnippet splices arbitrary snippet text into a Design2SVA
// testbench and elaborates the bound system both ways a row can, the
// front half of the Design2SVA judge: on an overlay of the row's base
// and from the whole file. Properties: no panic, no runaway (an input
// that stalls elaboration stalls the run, which then stops executing
// inputs), and the overlay agrees with the whole file on the verdict
// and, when both elaborate, on the canonical system dump.
func FuzzDesignSnippet(f *testing.F) {
	designs := append(rtlgen.Sweep96("pipeline")[:2], rtlgen.Sweep96("fsm")[:2]...)
	for i, inst := range designs {
		for s, code := range []string{
			llm.ExtractCode(llm.DesignModels()[0].Generate(llm.BuildDesignPrompt(inst), 0)),
			llm.ExtractCode(llm.DesignModels()[len(llm.DesignModels())-1].Generate(llm.BuildDesignPrompt(inst), 1)),
		} {
			f.Add(uint8(i+s), code)
		}
	}
	f.Add(uint8(0), "`define W 4\nlogic [`W-1:0] w; assign w = '1;\nassert property (@(posedge clk) w != 0);")
	f.Add(uint8(1), "logic [7:0] w; assign w = {2000000000{1'b1}};")
	f.Add(uint8(2), "assert property (@(posedge clk) {4{1'b1}} |-> ##2 1'b1);")
	f.Add(uint8(3), clog2Snippet)
	f.Add(uint8(0), "assert property (@(posedge clk) 1'b1);\nendmodule\nmodule extra;")
	f.Fuzz(func(t *testing.T, idx uint8, snippet string) {
		inst := designs[int(idx)%len(designs)]
		checkOverlay(t, inst.ID, NewDesignRow(inst), snippet)
	})
}
