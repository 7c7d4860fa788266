package core

import (
	"fmt"
	"strings"

	"fveval/internal/equiv"
	"fveval/internal/formal"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/mc"
	"fveval/internal/sva"
)

// parseHelperSet splits a snippet containing one or more labeled
// concurrent assertions into parsed helper assertions. Statements are
// delimited by semicolons (the SVA expression grammar in this repo has
// no statement-internal semicolons); non-assert statements are
// ignored so prose-free wrappers survive, but any malformed or
// unterminated assert fails the whole set — the response's syntax
// metric is all-or-nothing, like the tool compile step it mirrors.
func parseHelperSet(code string) ([]*sva.Assertion, bool) {
	var out []*sva.Assertion
	start := 0
	for i := 0; i < len(code); i++ {
		if code[i] != ';' {
			continue
		}
		stmt := strings.TrimSpace(code[start : i+1])
		start = i + 1
		if !strings.Contains(stmt, "assert") {
			continue
		}
		a, err := parseCandidate(stmt)
		if err != nil {
			return nil, false
		}
		if sva.Validate(a) != nil {
			return nil, false
		}
		out = append(out, a)
	}
	if strings.Contains(code[start:], "assert") {
		return nil, false // unterminated assert statement
	}
	return out, len(out) > 0
}

// JudgeHelper runs the AGR evaluation flow on one helper-set response:
// parse the candidate helpers, elaborate the design+bench system with
// the stuck target spliced in, and run the prove-then-assume lemma
// pipeline (mc.Design.CheckWithLemmas). Its verdicts (helperVerdicts)
// score onto the other task families' lattice:
//
//	Syntax  — every candidate helper parses, validates, and
//	          elaborates against the design;
//	Partial — every candidate helper is itself proved (helper
//	          validity in the paper's AGR scoring);
//	Full    — the target, unprovable alone by construction, is
//	          proved with the candidate helpers assumed.
//
// A non-nil row context (NewHelperRow(inst)) shares its elaborated
// system and its session pair with the other helper sets judged
// through it, as in JudgeDesign; nil means a context of this set's own.
func JudgeHelper(inst *helpergen.Instance, snippet string, opt mc.Options, row *DesignRow) Outcome {
	target, helpers := helperVerdicts(inst, snippet, opt, row)
	return score(inst.ID, snippet, target, helpers)
}

// helperVerdicts is a helper set's verdicts: the target's and, once
// the lemma pipeline ran to its end, each helper's. A set that does
// not parse or validate is a SyntaxError; a pipeline the checker ended
// early gives the target checkerVerdict and no helper verdicts.
func helperVerdicts(inst *helpergen.Instance, snippet string, opt mc.Options, row *DesignRow) (formal.Verdict, []formal.Verdict) {
	helpers, ok := parseHelperSet(snippet)
	if !ok {
		return formal.Verdict{Class: formal.SyntaxError}, nil
	}
	if row == nil {
		row = NewHelperRow(inst)
	}
	sys, err := row.system("")
	if err != nil {
		return formal.Verdict{Class: formal.SyntaxError}, nil
	}
	res, lemmas, err := row.mc.CheckWithLemmas(sys, inst.TargetAst, helpers, opt)
	if err != nil {
		// an elaboration error inside a property (undeclared signals
		// etc.) counts against the syntax metric, like the other judges
		return checkerVerdict(err), nil
	}
	vs := make([]formal.Verdict, len(lemmas))
	for i, lm := range lemmas {
		vs[i] = lm.Verdict
	}
	return res.Verdict, vs
}

// RefineFeedback is the CEX-guided refinement check (DESIGN.md §12):
// it judges a translation response the same way JudgeTranslation does
// and, when the candidate is not equivalent to the reference, returns
// an error whose text carries the concrete witness trace — the
// feedback the llm.FeedbackModel seam renders into the retry prompt.
// A nil return means the response needs no refinement.
func RefineFeedback(response string, ref *sva.Assertion, sigs *equiv.Sigs, cache *equiv.Cache, opt equiv.Options) error {
	code := llm.ExtractCode(response)
	cand, err := parseCandidate(code)
	if err != nil {
		return fmt.Errorf("the assertion does not parse: %v", err)
	}
	if err := sva.Validate(cand); err != nil {
		return fmt.Errorf("the assertion does not validate: %v", err)
	}
	res, err := cache.Check(cand, ref, sigs, opt)
	if err != nil {
		return fmt.Errorf("the assertion does not elaborate: %v", err)
	}
	if res.Verdict == equiv.Equivalent {
		return nil
	}
	var b strings.Builder
	b.WriteString("the assertion is not equivalent to the intended property")
	if res.AB != nil {
		b.WriteString("; counterexample trace satisfying your assertion but violating the intended property:\n")
		b.WriteString(res.AB.String())
	}
	if res.BA != nil {
		b.WriteString("; counterexample trace satisfying the intended property but violating your assertion:\n")
		b.WriteString(res.BA.String())
	}
	return fmt.Errorf("%s", strings.TrimRight(b.String(), "\n"))
}
