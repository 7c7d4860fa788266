package engine

import (
	"context"

	"fveval/internal/core"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
)

// ---- AGR (assertion-guided helper generation) ---------------------------

type helperCell struct{ syntax, valid, unlocked bool }

// HelperGrid evaluates the AGR grid (DESIGN.md §12): for each
// helpergen instance, models are prompted with the design, the bench,
// and the stuck target assertion, and their helper-set responses run
// through the prove-then-assume lemma pipeline. Always sampled, like
// Design2SVA. Outcome mapping: Syntax = the helper set parses and
// elaborates, Partial = every helper is itself proved (helper
// validity), Full = the target is unlocked.
func (e *Engine) HelperGrid(ctx context.Context, models []llm.Model, obs Observer) (*Grid, error) {
	kept, total := clip(helpergen.Sweep(), e.cfg)
	n := e.passKSamples()
	outs, err := e.runGrid(ctx, names(models), len(kept), n, func(i int) evalFunc {
		inst := kept[i]
		prompt := llm.BuildHelperPrompt(inst)
		return func(jctx context.Context, j job) core.Outcome {
			resp := generate(jctx, models[j.model], prompt, j.sample)
			code := llm.ExtractCode(resp)
			c := e.st.helper.get(jctx, inst.ID+"\x00"+code, func() helperCell {
				syn, valid, unlocked := judgeHelper(inst, code, e.mcOptions(jctx))
				return helperCell{syntax: syn, valid: valid, unlocked: unlocked}
			})
			return core.Outcome{InstanceID: inst.ID, Response: code, Syntax: c.syntax, Partial: c.valid, Full: c.unlocked}
		}
	}, obs)
	if err != nil {
		return nil, err
	}
	return e.newGrid(names(models), total, len(kept), n, outs), nil
}

// ---- CEX-guided refinement ----------------------------------------------

// RefinementGrid evaluates the NL2SVA-Machine pass@k grid with the
// CEX-guided refinement loop at a retry budget (Figure R's x-axis):
// each model is wrapped in an llm.FeedbackModel whose check renders
// the formal backend's witness traces into the retry prompt
// (core.RefineFeedback), so a candidate refuted by the equivalence
// checker retries against the concrete counterexample. rounds <= 0
// disables refinement — that grid is byte-identical to MachineGrid's.
// Model names on the returned grid are the BASE names, so pass@k
// columns line up across rounds in the figure.
func (e *Engine) RefinementGrid(ctx context.Context, models []llm.Model, rounds, count int, obs Observer) (*Grid, error) {
	kept, total := clip(core.LoadMachine(count), e.cfg)
	n := e.passKSamples()
	byID := make(map[string]*core.MachineInstance, len(kept))
	for _, in := range kept {
		byID[in.ID] = in
	}
	check := func(p *llm.Prompt, resp string) error {
		in := byID[p.InstanceID]
		if in == nil {
			return nil
		}
		return core.RefineFeedback(resp, in.Reference, in.Sigs, e.st.cache, e.equivOptions(context.Background()))
	}
	maxRetries := rounds
	if rounds <= 0 {
		maxRetries = -1 // explicit FeedbackModel contract: disabled
	}
	wrapped := make([]llm.Model, len(models))
	for i, m := range models {
		wrapped[i] = &llm.FeedbackModel{
			Base:       m,
			Check:      check,
			MaxRetries: maxRetries,
			Rounds:     &e.st.refineRounds,
		}
	}
	outs, err := e.runGrid(ctx, names(models), len(kept), n, func(i int) evalFunc {
		in := kept[i]
		prompt := llm.BuildMachinePrompt(in.ID, in.NL, 3, in.Reference)
		return func(jctx context.Context, j job) core.Outcome {
			resp := generate(jctx, wrapped[j.model], prompt, j.sample)
			return e.judgeTranslation(jctx, datasetMachine, in.ID, resp, in.Reference, in.Sigs)
		}
	}, obs)
	if err != nil {
		return nil, err
	}
	return e.newGrid(names(models), total, len(kept), n, outs), nil
}

// RefineRounds reports the cumulative FeedbackModel retry rounds
// performed on this engine's pool; callers diff before/after a run to
// surface the per-run count.
func (e *Engine) RefineRounds() int64 { return e.st.refineRounds.Load() }
