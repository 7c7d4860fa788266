package mc

import (
	"fveval/internal/formal"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// assumedLemma is a safety property that has already been PROVED
// against the same system and may therefore be assumed as a path
// constraint while checking another property. Assuming an unproved
// formula would be unsound (it prunes real counterexample traces), so
// values of this type are only ever constructed inside
// Design.CheckWithLemmas after a Proven verdict — there is no exported constructor on purpose.
type assumedLemma struct {
	f     ltl.Formula
	abort sva.Expr
	d     int // bounded evaluation window of f
}

// Lemma reports the fate of one candidate helper assertion submitted
// to Design.CheckWithLemmas, index-aligned with the helpers argument.
type Lemma struct {
	// Verdict is the helper's last verdict in the fixpoint. Proven
	// helpers were proved (possibly using other proved helpers as
	// lemmas) and hence assumed during the target check, Depth being
	// the induction length of the proof; no other helper is assumed.
	// A liveness helper is never checked and stays Undecided.
	formal.Verdict
	// LoadBearing marks proved helpers without which the target proof
	// fails: removing the helper from the candidate set and re-running
	// the whole pipeline (so transitive dependencies collapse too)
	// leaves the target unproven. Only computed when the target was
	// proved.
	LoadBearing bool
}

// CheckWithLemmas checks target with candidate helper assertions as
// prospective lemmas, the AGR scoring primitive (DESIGN.md §12).
//
// The pipeline is prove-then-assume: each helper must first be proved
// against the system before it is ever assumed. Helpers are proved to
// a fixpoint — every round retries the still-unproved candidates with
// all previously proved ones assumed, until a round makes no
// progress — so helper chains with sequential dependencies (h2 only
// inductive once h1 is assumed) resolve regardless of candidate
// order. The target is then checked with every proved helper assumed,
// strengthening the induction hypothesis. Unbounded (liveness)
// helpers are never assumed: the checker's liveness verdicts are only
// bounded proofs, which are unsound to assume. A helper that does not
// lower fails the whole set with the lowering error, as a helper
// naming an undeclared signal does.
//
// When the target proves, each proved helper is ablated — removed
// from the candidate set entirely and the pipeline re-run — to decide
// whether it was load-bearing. Ablating the candidate (not just the
// assumption) means a helper whose only role is enabling another
// helper's proof is still correctly marked load-bearing.
//
// Every safety check of the pipeline runs in c's session pair; each
// check gates its own assumed lemmas, so a lemma never outlives the
// check that assumed it.
func (c *Design) CheckWithLemmas(sys *rtl.System, target *sva.Assertion, helpers []*sva.Assertion, opt Options) (Result, []Lemma, error) {
	opt = opt.withDefaults()
	assumes, err := lowerAssumes(sys)
	if err != nil {
		return Result{}, nil, err
	}

	type cand struct {
		f     ltl.Formula // nil: a liveness helper, never proved or assumed
		abort sva.Expr
		d     int
	}
	cands := make([]cand, len(helpers))
	for i, h := range helpers {
		f, err := ltl.LowerAssertion(h)
		if err != nil {
			return Result{}, nil, err
		}
		if !ltl.HasUnbounded(f) {
			cands[i] = cand{f: f, abort: h.DisableIff, d: ltl.Depth(f)}
		}
	}

	tf, err := ltl.LowerAssertion(target)
	if err != nil {
		return Result{}, nil, err
	}

	// run executes one full pipeline pass with candidate exclude (an
	// index, or -1) removed: fixpoint-prove the helpers, then check
	// the target under the proved set.
	run := func(exclude int) (Result, []Lemma, error) {
		out := make([]Lemma, len(cands))
		var lemmas []assumedLemma
		for progress := true; progress; {
			progress = false
			for i := range cands {
				if i == exclude || cands[i].f == nil || out[i].Class == formal.Proven {
					continue
				}
				res, err := c.checkSafety(sys, cands[i].f, cands[i].abort, assumes, lemmas, opt)
				if err != nil {
					return Result{}, nil, err
				}
				out[i].Verdict = res.Verdict
				if res.Class == formal.Proven {
					lemmas = append(lemmas, assumedLemma{f: cands[i].f, abort: cands[i].abort, d: cands[i].d})
					progress = true
				}
			}
		}
		var tres Result
		if ltl.HasUnbounded(tf) {
			// Liveness targets get no lemma strengthening (the lasso
			// encoding has no induction hypothesis to strengthen), but
			// helper validity is still reported.
			tres, err = c.checkLiveness(sys, tf, target.DisableIff, assumes, opt)
		} else {
			tres, err = c.checkSafety(sys, tf, target.DisableIff, assumes, lemmas, opt)
		}
		if err != nil {
			return Result{}, nil, err
		}
		return tres, out, nil
	}

	tres, out, err := run(-1)
	if err != nil {
		return Result{}, nil, err
	}
	if tres.Class == formal.Proven {
		for i := range cands {
			if out[i].Class != formal.Proven {
				continue
			}
			ares, _, err := run(i)
			if err != nil {
				return Result{}, nil, err
			}
			if ares.Class != formal.Proven {
				out[i].LoadBearing = true
			}
		}
	}

	var nProved, nBearing int64
	for _, lm := range out {
		if lm.Class == formal.Proven {
			nProved++
		}
		if lm.LoadBearing {
			nBearing++
		}
	}
	opt.Stats.Lemmas(int64(len(helpers)), nProved, nBearing)
	return tres, out, nil
}
