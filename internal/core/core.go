// Package core holds the benchmark substance shared by every run: the
// three sub-benchmark datasets (NL2SVA-Human, NL2SVA-Machine,
// Design2SVA), the per-response judgment flow — response extraction,
// syntax check, formal equivalence or proof — and the fold of judged
// outcomes into the one result row every table is rendered from.
//
// Execution (worker pools, job scheduling, sharding, memoized
// equivalence checking) lives in internal/engine; core stays free of
// run-loop concerns so judgments can be reused by any runner.
package core

import (
	"errors"
	"fmt"
	"slices"

	"fveval/internal/dataset/human"
	"fveval/internal/equiv"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/gen/svagen"
	"fveval/internal/llm"
	"fveval/internal/mc"
	"fveval/internal/memo"
	"fveval/internal/metrics"
	"fveval/internal/obs"
	"fveval/internal/rtl"
	"fveval/internal/sat"
	"fveval/internal/sva"
)

// Outcome is the judged result of one response.
type Outcome struct {
	InstanceID string  `json:"instance"`
	Response   string  `json:"response,omitempty"`
	Syntax     bool    `json:"syntax,omitempty"`
	Full       bool    `json:"func,omitempty"`    // exact formal equivalence (or proven, for Design2SVA)
	Partial    bool    `json:"partial,omitempty"` // one-directional equivalence (includes Full)
	BLEU       float64 `json:"bleu,omitempty"`
}

// syntactic reports whether a verdict's model text compiled, the
// paper's Syn metric: neither it nor its property was rejected.
func syntactic(v formal.Verdict) bool {
	return v.Class != formal.SyntaxError && v.Class != formal.ElabError
}

// score is the one scoring of model-checking verdicts into an outcome:
// Syntax unless the target's text or property was rejected, Full when
// the target is proven (bounded proofs included), and Partial when
// there are helpers (AGR) and every one of them is proven.
func score(id, code string, target formal.Verdict, helpers []formal.Verdict) Outcome {
	unproven := func(h formal.Verdict) bool { return h.Class != formal.Proven }
	syntax := syntactic(target)
	return Outcome{InstanceID: id, Response: code, Syntax: syntax, Full: target.Class == formal.Proven,
		Partial: syntax && len(helpers) > 0 && !slices.ContainsFunc(helpers, unproven)}
}

// checkerVerdict is the verdict of a check the checker ended with
// err. A solver call that ran out of its conflict budget leaves the
// property undecided: a budget cannot make model text less syntactic.
// Any other error is the checker rejecting the property.
func checkerVerdict(err error) formal.Verdict {
	if errors.Is(err, sat.ErrBudget) {
		return formal.Verdict{Class: formal.Undecided, Reason: formal.Budget}
	}
	return formal.Verdict{Class: formal.ElabError}
}

// Row is one model's result on one task setting. Greedy settings fill
// the mean metrics (Count, Syntax, Func, Partial, BLEU, Outcomes);
// sampled settings fill Samples and the pass@k maps.
type Row struct {
	Model string `json:"model"`
	// Count is the number of judged outcomes (greedy settings).
	Count int `json:"count,omitempty"`
	// Samples is n, the samples drawn per instance (sampled settings).
	Samples int `json:"samples,omitempty"`

	Syntax  float64 `json:"syntax,omitempty"`
	Func    float64 `json:"func,omitempty"`
	Partial float64 `json:"partial,omitempty"`
	BLEU    float64 `json:"bleu,omitempty"`

	SyntaxK  map[int]float64 `json:"syntax_at_k,omitempty"`
	FuncK    map[int]float64 `json:"func_at_k,omitempty"`
	PartialK map[int]float64 `json:"partial_at_k,omitempty"`

	// Outcomes are the per-instance judgments (greedy settings keep
	// them for downstream analyses such as Figure 6).
	Outcomes []Outcome `json:"outcomes,omitempty"`
}

// Aggregate folds outcomes into one model's greedy row. The fold
// visits outcomes in slice order, so identical slices produce
// bit-identical rows no matter how the outcomes were computed.
func Aggregate(model string, outs []Outcome) Row {
	r := Row{Model: model, Count: len(outs), Outcomes: outs}
	if len(outs) == 0 {
		return r
	}
	var b float64
	for _, o := range outs {
		b += o.BLEU
	}
	s, f, p := passes(outs)
	n := float64(len(outs))
	r.Syntax, r.Func, r.Partial, r.BLEU = float64(s)/n, float64(f)/n, float64(p)/n, b/n
	return r
}

// passes counts the outcomes that pass each metric.
func passes(outs []Outcome) (syntax, full, partial int) {
	for _, o := range outs {
		if o.Syntax {
			syntax++
		}
		if o.Full {
			full++
		}
		if o.Partial {
			partial++
		}
	}
	return syntax, full, partial
}

// AggregatePassK computes unbiased pass@k per metric from a flattened
// outcome grid laid out instance-major: outs[i*n+s] is instance i,
// sample s.
func AggregatePassK(model string, nInst, n int, ks []int, outs []Outcome) Row {
	r := Row{
		Model: model, Samples: n,
		SyntaxK:  map[int]float64{},
		FuncK:    map[int]float64{},
		PartialK: map[int]float64{},
	}
	for _, k := range ks {
		var sSum, fSum, pSum float64
		for i := 0; i < nInst; i++ {
			sC, fC, pC := passes(outs[i*n : i*n+n])
			sSum += metrics.PassAtK(n, sC, k)
			fSum += metrics.PassAtK(n, fC, k)
			pSum += metrics.PassAtK(n, pC, k)
		}
		r.SyntaxK[k] = sSum / float64(nInst)
		r.FuncK[k] = fSum / float64(nInst)
		r.PartialK[k] = pSum / float64(nInst)
	}
	return r
}

// HumanInstance is one NL2SVA-Human test case with its environment.
type HumanInstance struct {
	ID        string
	Testbench *human.Testbench
	NL        string
	Reference *sva.Assertion
	Sigs      *equiv.Sigs
}

// LoadHuman assembles the NL2SVA-Human instances, deriving each
// testbench's signal environment by elaboration.
func LoadHuman() ([]*HumanInstance, error) {
	var out []*HumanInstance
	for _, tb := range human.Testbenches() {
		f, err := rtl.Parse(tb.Source)
		if err != nil {
			return nil, fmt.Errorf("core: testbench %s: %w", tb.Name, err)
		}
		sys, err := rtl.Elaborate(f, tb.Top, nil)
		if err != nil {
			return nil, fmt.Errorf("core: testbench %s: %w", tb.Name, err)
		}
		w, c := sys.Sigs()
		sigs := &equiv.Sigs{Widths: w, Consts: c}
		for _, pair := range tb.Pairs {
			ref, err := sva.ParseAssertion(pair.Reference)
			if err != nil {
				return nil, fmt.Errorf("core: reference %s: %w", pair.ID, err)
			}
			out = append(out, &HumanInstance{
				ID: pair.ID, Testbench: tb, NL: pair.NL, Reference: ref, Sigs: sigs,
			})
		}
	}
	return out, nil
}

// MachineInstance adapts svagen output with the shared machine
// environment.
type MachineInstance struct {
	ID        string
	NL        string
	Reference *sva.Assertion
	Sigs      *equiv.Sigs
}

// LoadMachine builds the NL2SVA-Machine dataset (paper size 300).
func LoadMachine(count int) []*MachineInstance {
	sigs := equiv.DefaultMachineSigs()
	var out []*MachineInstance
	for _, inst := range svagen.Dataset(count) {
		out = append(out, &MachineInstance{
			ID: inst.ID, NL: inst.NL, Reference: inst.Reference, Sigs: sigs,
		})
	}
	return out
}

// ResetMemos clears the process-wide judgment memos (reference BLEU
// tokens, candidate parses). Benchmarks call it so
// each table measures a cold run — and so one benchmark's retained
// ASTs don't inflate the next one's GC mark phase; a long-lived
// service may call it to shed memory.
func ResetMemos() {
	refBLEU.Clear()
	candParses.Clear()
}

// refBLEU memoizes each reference assertion's BLEU tokens by
// identity: one reference is scored against every sample of every
// model, and rendering plus tokenizing it per judgment was a top-five
// cost of the machine tables. It clears at 1<<16 entries so a
// long-lived service cannot grow it without limit (references are
// per-load pointers).
var refBLEU = memo.New[*sva.Assertion, metrics.RefTokens](1 << 16)

func refTokens(ref *sva.Assertion) metrics.RefTokens {
	t, _ := refBLEU.Get(ref, func() metrics.RefTokens { return metrics.TokenizeRef(ref.String()) })
	return t
}

// candParses memoizes candidate parsing by source text: generic
// responses recur across instances and models, and every consumer
// treats parsed assertions as read-only, so one shared parse (and its
// downstream identity-keyed memo entries) serves them all. Bounded
// like refBLEU.
var candParses = memo.New[string, candParse](1 << 16)

type candParse struct {
	a   *sva.Assertion
	err error
}

func parseCandidate(code string) (*sva.Assertion, error) {
	p, _ := candParses.Get(code, func() candParse {
		a, err := sva.ParseAssertion(code)
		return candParse{a, err}
	})
	return p.a, p.err
}

// JudgeTranslation runs the full evaluation flow on one response:
// extraction, BLEU, parse, validate, formal equivalence against the
// reference. The checker options (budget, bound ramp ceiling, stats
// sink) pass through to equiv.Check; a non-nil cache memoizes the
// equivalence check, nil means solve directly. Verdicts are identical
// either way.
func JudgeTranslation(id, response string, ref *sva.Assertion, sigs *equiv.Sigs, opt equiv.Options, cache *equiv.Cache) Outcome {
	code := llm.ExtractCode(response)
	out := Outcome{InstanceID: id, Response: code}
	bsp := opt.Span.Child("bleu").SetPhase(obs.PhaseBLEU)
	out.BLEU = metrics.BLEURef(code, refTokens(ref))
	bsp.End()
	psp := opt.Span.Child("parse").SetPhase(obs.PhaseParse)
	cand, err := parseCandidate(code)
	if err == nil {
		err = sva.Validate(cand)
	}
	psp.SetBool("ok", err == nil).End()
	if err != nil {
		return out
	}
	res, err := cache.Check(cand, ref, sigs, opt)
	if err != nil {
		// elaboration failure (undeclared signals etc.) counts against
		// the syntax metric, mirroring the tool compile step
		out.Syntax = syntactic(checkerVerdict(err))
		return out
	}
	out.Syntax = true
	switch res.Verdict {
	case equiv.Equivalent:
		out.Full, out.Partial = true, true
	case equiv.AImpliesB, equiv.BImpliesA:
		out.Partial = true
	}
	return out
}

// JudgeDesign re-formats the testbench with the model's snippet,
// elaborates the bound DUT+testbench system, and model-checks the
// assertion — the paper's Design2SVA evaluation flow — and scores the
// verdict (designVerdict). The checker options (budget, depths, stats
// sink) pass through to the model checker. A non-nil row context
// (NewDesignRow(inst)) shares its elaborated base and its session pair
// with the other candidates judged through it; nil means a context of
// this candidate's own. Verdicts are identical either way.
func JudgeDesign(inst *rtlgen.Instance, snippet string, opt mc.Options, row *DesignRow) Outcome {
	return score(inst.ID, snippet, designVerdict(inst, snippet, opt, row), nil)
}

// designVerdict is a snippet's verdict: SyntaxError when it does not
// parse, elaborate or validate or has no assertion, ElabError when the
// checker rejects one of its assertions, and otherwise the first
// assertion verdict that is not a proof, or the first proof. Every
// assertion is checked, in source order, until one is rejected: an
// undecided one does not hide a later rejection.
func designVerdict(inst *rtlgen.Instance, snippet string, opt mc.Options, row *DesignRow) formal.Verdict {
	if row == nil {
		row = NewDesignRow(inst)
	}
	psp := opt.Span.Child("parse").SetPhase(obs.PhaseParse)
	sys, err := row.system(snippet)
	ok := err == nil && len(sys.Asserts) > 0
	// Validate every assertion's signals resolve (elaboration of the
	// assertion itself happens inside the checker).
	for i := 0; ok && i < len(sys.Asserts); i++ {
		ok = sva.Validate(sys.Asserts[i]) == nil
	}
	psp.SetBool("ok", ok).End()
	if !ok {
		return formal.Verdict{Class: formal.SyntaxError}
	}
	var v formal.Verdict
	for i, a := range sys.Asserts {
		res, err := row.mc.CheckAssertion(sys, a, opt)
		if err != nil {
			res.Verdict = checkerVerdict(err)
		}
		if res.Class == formal.ElabError {
			return res.Verdict
		}
		if i == 0 || v.Class == formal.Proven && res.Class != formal.Proven {
			v = res.Verdict
		}
	}
	return v
}
