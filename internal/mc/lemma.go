package mc

import (
	"fveval/internal/ltl"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// assumedLemma is a safety property that has already been PROVED
// against the same system and may therefore be assumed as a path
// constraint while checking another property. Assuming an unproved
// formula would be unsound (it prunes real counterexample traces), so
// values of this type are only ever constructed inside CheckWithLemmas
// after a Proven verdict — there is no exported constructor on purpose.
type assumedLemma struct {
	f     ltl.Formula
	abort sva.Expr
	d     int // bounded evaluation window of f
}

// Lemma reports the fate of one candidate helper assertion submitted
// to CheckWithLemmas, index-aligned with the helpers argument.
type Lemma struct {
	// Proved marks helpers that were themselves proved (possibly using
	// other proved helpers as lemmas) and hence assumed during the
	// target check. Unproved helpers are never assumed.
	Proved bool
	// Depth is the induction length of the helper's own proof.
	Depth int
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
// bounded proofs, which are unsound to assume.
//
// When the target proves, each proved helper is ablated — removed
// from the candidate set entirely and the pipeline re-run — to decide
// whether it was load-bearing. Ablating the candidate (not just the
// assumption) means a helper whose only role is enabling another
// helper's proof is still correctly marked load-bearing.
//
// It is the one-check form of Design.CheckWithLemmas: every safety
// check of the pipeline runs in one fresh session pair.
func CheckWithLemmas(sys *rtl.System, target *sva.Assertion, helpers []*sva.Assertion, opt Options) (Result, []Lemma, error) {
	return NewDesign().CheckWithLemmas(sys, target, helpers, opt)
}

// CheckWithLemmas is the package-level CheckWithLemmas with every
// safety check of the pipeline run in c's session pair; each check
// gates its own assumed lemmas, so a lemma never outlives the check
// that assumed it.
func (c *Design) CheckWithLemmas(sys *rtl.System, target *sva.Assertion, helpers []*sva.Assertion, opt Options) (Result, []Lemma, error) {
	if c == nil {
		c = NewDesign()
	}
	opt = opt.withDefaults()
	assumes, err := lowerAssumes(sys)
	if err != nil {
		return Result{}, nil, err
	}

	type cand struct {
		f     ltl.Formula
		abort sva.Expr
		d     int
		ok    bool // lowered to a bounded (safety) formula
	}
	cands := make([]cand, len(helpers))
	for i, h := range helpers {
		f, err := ltl.LowerAssertion(h)
		if err != nil || ltl.HasUnbounded(f) {
			continue // never proved, never assumed
		}
		var abort sva.Expr
		if h.DisableIff != nil {
			abort = h.DisableIff
		}
		cands[i] = cand{f: f, abort: abort, d: ltl.Depth(f), ok: true}
	}

	tf, err := ltl.LowerAssertion(target)
	if err != nil {
		return Result{}, nil, err
	}
	var tabort sva.Expr
	if target.DisableIff != nil {
		tabort = target.DisableIff
	}

	// run executes one full pipeline pass with candidate exclude (an
	// index, or -1) removed: fixpoint-prove the helpers, then check
	// the target under the proved set.
	run := func(exclude int) (Result, []bool, []int, error) {
		proved := make([]bool, len(cands))
		depths := make([]int, len(cands))
		var lemmas []assumedLemma
		for progress := true; progress; {
			progress = false
			for i := range cands {
				if i == exclude || !cands[i].ok || proved[i] {
					continue
				}
				res, err := c.checkSafety(sys, cands[i].f, cands[i].abort, assumes, lemmas, opt)
				if err != nil {
					return Result{}, nil, nil, err
				}
				if res.Status == Proven {
					proved[i] = true
					depths[i] = res.Depth
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
			tres, err = checkLiveness(sys, tf, tabort, assumes, opt)
		} else {
			tres, err = c.checkSafety(sys, tf, tabort, assumes, lemmas, opt)
		}
		if err != nil {
			return Result{}, nil, nil, err
		}
		return tres, proved, depths, nil
	}

	tres, proved, depths, err := run(-1)
	if err != nil {
		return Result{}, nil, err
	}
	out := make([]Lemma, len(helpers))
	for i := range out {
		out[i] = Lemma{Proved: proved[i], Depth: depths[i]}
	}
	if tres.Status == Proven {
		for i := range cands {
			if !proved[i] {
				continue
			}
			ares, _, _, err := run(i)
			if err != nil {
				return Result{}, nil, err
			}
			if ares.Status != Proven {
				out[i].LoadBearing = true
			}
		}
	}

	var nProved, nBearing int64
	for _, lm := range out {
		if lm.Proved {
			nProved++
		}
		if lm.LoadBearing {
			nBearing++
		}
	}
	opt.Stats.Lemmas(int64(len(helpers)), nProved, nBearing)
	return tres, out, nil
}
