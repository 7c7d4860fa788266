package engine

import (
	"context"

	"fveval/internal/core"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
)

// ---- AGR (assertion-guided helper generation) ---------------------------

// HelperGrid evaluates the AGR grid (DESIGN.md §12): for each
// helpergen instance, models are prompted with the design, the bench,
// and the stuck target assertion, and their helper-set responses run
// through the prove-then-assume lemma pipeline. Always sampled, like
// Design2SVA. Outcome mapping: Syntax = the helper set parses and
// elaborates, Partial = every helper is itself proved (helper
// validity), Full = the target is unlocked. Each instance row judges
// its helper sets through one core.DesignRow, whose mc.Design shares a
// session pair and a verdict memo across them: a lemma-pipeline
// question one set decided is not checked again for another.
func (e *Engine) HelperGrid(ctx context.Context, models []llm.Model, obs Observer) (*Grid, error) {
	kept, total := clip(helpergen.Sweep(), e.cfg)
	return e.runGrid(ctx, models, total, len(kept), e.cfg.PassKSamples(), func(i int) evalFunc {
		inst := kept[i]
		prompt := llm.BuildHelperPrompt(inst)
		row := core.NewHelperRow(inst) // the row's helper sets share one system and session pair
		return func(jctx context.Context, j job) core.Outcome {
			code := llm.ExtractCode(generate(jctx, models[j.model], prompt, j.sample))
			return e.judged(jctx, e.memoKey(familyHelper, inst.ID, code), func() core.Outcome {
				return judgeHelper(inst, code, e.mcOptions(jctx), row)
			})
		}
	}, obs)
}

// ---- CEX-guided refinement ----------------------------------------------

// feedbackModels wraps models in the refinement loop for the kept
// machine instances: a response the equivalence checker refutes is
// retried with its counterexample, at most retries times.
func (e *Engine) feedbackModels(models []llm.Model, kept []*core.MachineInstance, retries int) []llm.Model {
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
	wrapped := make([]llm.Model, len(models))
	for i, m := range models {
		wrapped[i] = &llm.FeedbackModel{Base: m, Check: check, MaxRetries: retries, Rounds: &e.st.refineRounds}
	}
	return wrapped
}

// RefineRounds reports the cumulative FeedbackModel retry rounds
// performed on this engine's pool; callers diff before/after a run to
// surface the per-run count.
func (e *Engine) RefineRounds() int64 { return e.st.refineRounds.Load() }
