// Package fveval is the public facade of the FVEval reproduction: a
// benchmark and evaluation framework for language models on hardware
// formal verification tasks via SystemVerilog Assertions, after
// "FVEval: Understanding Language Model Capabilities in Formal
// Verification of Digital Hardware" (Kang et al., DATE 2025).
//
// The API is task-centric: every sub-benchmark (each paper table and
// figure) is a named entry in a task registry, and one entry point
// runs any of them:
//
//	for _, t := range fveval.Tasks() {
//		fmt.Println(t.Name, "—", t.Title)
//	}
//	run, err := fveval.Run(ctx, fveval.Request{
//		Task:    "nl2sva-human",
//		Params:  fveval.Params{Models: []string{"gpt-4o"}},
//		Options: fveval.Options{Limit: 20},
//	})
//	fmt.Print(run.Report.Render())
//
// A Run returns one unified Report (JSON round-trippable: one row per
// model and sub-setting, and Render for the paper layout), streams
// per-job progress through Request.Progress, honors context
// cancellation, and carries run metadata (cache and formal-backend
// statistics, wall-clock).
// Reuse one Engine across runs — or serve it over HTTP with
// cmd/fvevald — to share the equivalence-check cache between them.
//
// Underneath, the registry drives the unified evaluation engine
// (flattened job queue, bounded worker pool, run-wide memo pool) and
// the incremental formal backend (assumption-based CDCL sessions with
// bound ramping; see Options.MaxBound and FormalStats).
package fveval

import (
	"context"

	"fveval/internal/engine"
	"fveval/internal/equiv"
	"fveval/internal/formal"
	"fveval/internal/llm"
	"fveval/internal/metrics"
	"fveval/internal/sva"
	"fveval/internal/task"
)

// Options tunes a benchmark run. See engine.Config; Validate rejects
// malformed values (negative sizes or budgets) instead of clamping.
type Options = engine.Config

// TaskSpec describes one registry task: name, paper table/figure,
// default parameters, and which parameters it accepts.
type TaskSpec = task.Spec

// Params are a task's tunable knobs (model set, shot counts, pass@k
// cut-offs, dataset size, design categories).
type Params = task.Params

// Request names one registry task plus parameter overrides, engine
// options, and an optional progress callback.
type Request = task.Request

// Event is one streamed per-job progress notification.
type Event = task.Event

// Report is the unified result type every task produces: per-model
// rows grouped by sub-setting, and Render reproduces the paper table
// or figure.
type Report = task.Report

// Result is a completed run: the unified Report, the resolved
// request echo, and execution metadata.
type Result = task.Run

// Engine executes registry tasks over one shared memo pool
// (equivalence cache, judgment memo, formal counters); reuse one
// engine across runs to share the pool.
type Engine = task.Engine

// CacheStats reports equivalence-cache hit/miss counters for a run.
type CacheStats = equiv.CacheStats

// FormalStats reports the incremental formal backend's solver-reuse
// and bound-ramp counters for a run (see Engine.FormalStats): formal
// queries open persistent assumption-based SAT sessions that ramp the
// bound upward, so most inequivalent pairs and shallow counterexamples
// are decided at small bounds while proofs reuse all learnt clauses.
type FormalStats = formal.Snapshot

// SimStats reports the bit-parallel simulation prefilter's counters
// (patterns simulated, refutations, bank hits);
// it is the Sim field of FormalStats, see DESIGN.md §10.
type SimStats = formal.SimStats

// Tasks lists the registry: one spec per sub-benchmark, covering
// every paper table and figure.
func Tasks() []TaskSpec { return task.Tasks() }

// NewEngine builds an evaluation engine whose default configuration
// is opt; reuse one engine across runs to share its memo pool. Like
// the underlying engine it panics on invalid options — callers
// holding untrusted configuration should opt.Validate() first.
func NewEngine(opt Options) *Engine { return task.NewEngine(opt) }

// Run executes one registry task on a fresh engine. For repeated or
// served runs build one Engine and call its Run method instead, so
// the equivalence cache carries across runs.
func Run(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return task.NewEngine(Options{}).Run(ctx, req)
}

// Model is the language-model interface; the built-in fleet consists
// of calibrated offline proxies (see internal/llm).
type Model = llm.Model

// Verdict classifies an assertion pair.
type Verdict = equiv.Verdict

// Verdict values.
const (
	Inequivalent = equiv.Inequivalent
	Equivalent   = equiv.Equivalent
	AImpliesB    = equiv.AImpliesB
	BImpliesA    = equiv.BImpliesA
)

// Models returns the full proxy fleet (8 models).
func Models() []Model { return llm.Models() }

// DesignModels returns the Design2SVA-capable subset (6 models).
func DesignModels() []Model { return llm.DesignModels() }

// ModelByName finds a proxy model.
func ModelByName(name string) Model { return llm.ModelByName(name) }

// CheckSyntax reports whether assertion source passes the tool-style
// syntax check (parse + validate).
func CheckSyntax(src string) error { return sva.CheckSyntax(src) }

// CheckEquivalence decides the formal relationship between two
// assertions over the given signal widths, returning the verdict and
// optional counterexample traces.
func CheckEquivalence(aSrc, bSrc string, widths map[string]int) (equiv.Result, error) {
	a, err := sva.ParseAssertion(aSrc)
	if err != nil {
		return equiv.Result{}, err
	}
	b, err := sva.ParseAssertion(bSrc)
	if err != nil {
		return equiv.Result{}, err
	}
	sigs := &equiv.Sigs{Widths: widths}
	return equiv.Check(a, b, sigs, equiv.Options{})
}

// BLEU scores a candidate against a reference assertion, over code
// tokens with smoothing.
func BLEU(candidate, reference string) float64 {
	return metrics.BLEU(candidate, reference)
}

// PassAtK is the unbiased pass@k estimator for c correct out of n
// samples. It is defined only for 1 <= k <= n and panics otherwise.
func PassAtK(n, c, k int) float64 { return metrics.PassAtK(n, c, k) }
