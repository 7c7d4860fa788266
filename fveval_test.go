package fveval

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeEquivalence(t *testing.T) {
	widths := map[string]int{"clk": 1, "a": 1, "b": 1}
	res, err := CheckEquivalence(
		"assert property (@(posedge clk) a |=> b);",
		"assert property (@(posedge clk) a |-> ##1 b);",
		widths,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict: %v", res.Verdict)
	}
}

func TestFacadeSyntax(t *testing.T) {
	if err := CheckSyntax("assert property (@(posedge clk) a |-> b);"); err != nil {
		t.Fatalf("valid assertion rejected: %v", err)
	}
	if err := CheckSyntax("assert property (@(posedge clk) a |-> eventually(b));"); err == nil {
		t.Fatalf("hallucinated operator accepted")
	}
}

func TestFacadeMetrics(t *testing.T) {
	if PassAtK(5, 5, 1) != 1 {
		t.Fatalf("PassAtK broken")
	}
	if BLEU("a b c", "a b c") < 0.99 {
		t.Fatalf("BLEU broken")
	}
}

func TestFacadeFleet(t *testing.T) {
	if len(Models()) != 8 || len(DesignModels()) != 6 {
		t.Fatalf("fleet sizes: %d / %d", len(Models()), len(DesignModels()))
	}
	if ModelByName("gpt-4o") == nil {
		t.Fatalf("gpt-4o missing")
	}
}

func TestFacadeEndToEndSlice(t *testing.T) {
	run, err := Run(context.Background(), Request{
		Task:    "nl2sva-human",
		Params:  Params{Models: []string{"gpt-4o"}},
		Options: Options{Limit: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := run.Report.Group("").Rows
	if len(rows) != 1 || rows[0].Model != "gpt-4o" || rows[0].Count != 8 || len(rows[0].Outcomes) != 8 {
		t.Fatalf("report malformed: %+v", run.Report)
	}
	if out := run.Report.Render(); !strings.HasPrefix(out, "Table 1") || !strings.Contains(out, "gpt-4o") {
		t.Fatalf("report renders malformed:\n%s", out)
	}
}

func TestFacadeRegistryRun(t *testing.T) {
	if len(Tasks()) < 10 {
		t.Fatalf("registry too small: %d", len(Tasks()))
	}
	run, err := Run(context.Background(), Request{
		Task:    "nl2sva-human",
		Params:  Params{Models: []string{"gpt-4o"}},
		Options: Options{Limit: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(run.Report.Render(), "gpt-4o") {
		t.Fatalf("report malformed:\n%s", run.Report.Render())
	}
	if _, err := Run(context.Background(), Request{Task: "nope"}); err == nil {
		t.Fatalf("unknown task accepted")
	}
	if _, err := Run(context.Background(), Request{Task: "nl2sva-human", Options: Options{Samples: -1}}); err == nil {
		t.Fatalf("invalid options accepted")
	}
}
