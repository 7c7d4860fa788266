// Package core holds the benchmark substance shared by every run: the
// three sub-benchmark datasets (NL2SVA-Human, NL2SVA-Machine,
// Design2SVA), the per-response judgment flow — response extraction,
// syntax check, formal equivalence or proof — and the report types and
// table/figure renderers for the paper's metrics.
//
// Execution (worker pools, job scheduling, sharding, memoized
// equivalence checking) lives in internal/engine; core stays free of
// run-loop concerns so judgments can be reused by any runner.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"fveval/internal/dataset/human"
	"fveval/internal/equiv"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/gen/svagen"
	"fveval/internal/llm"
	"fveval/internal/mc"
	"fveval/internal/metrics"
	"fveval/internal/obs"
	"fveval/internal/rtl"
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

// ModelReport aggregates outcomes for one model on one task setting.
type ModelReport struct {
	Model    string
	Count    int
	Syntax   float64
	Func     float64
	Partial  float64
	BLEU     float64
	Outcomes []Outcome
}

// Aggregate folds outcomes into one model's report. The fold visits
// outcomes in slice order, so identical slices produce bit-identical
// reports no matter how the outcomes were computed.
func Aggregate(model string, outs []Outcome) ModelReport {
	r := ModelReport{Model: model, Count: len(outs), Outcomes: outs}
	if len(outs) == 0 {
		return r
	}
	var s, f, p, b float64
	for _, o := range outs {
		if o.Syntax {
			s++
		}
		if o.Full {
			f++
		}
		if o.Partial {
			p++
		}
		b += o.BLEU
	}
	n := float64(len(outs))
	r.Syntax, r.Func, r.Partial, r.BLEU = s/n, f/n, p/n, b/n
	return r
}

// PassKReport aggregates pass@k across samples.
type PassKReport struct {
	Model    string
	N        int // samples per instance
	SyntaxK  map[int]float64
	FuncK    map[int]float64
	PartialK map[int]float64
}

// AggregatePassK computes unbiased pass@k per metric from a flattened
// outcome grid laid out instance-major: outs[i*n+s] is instance i,
// sample s.
func AggregatePassK(model string, nInst, n int, ks []int, outs []Outcome) PassKReport {
	rep := PassKReport{
		Model: model, N: n,
		SyntaxK:  map[int]float64{},
		FuncK:    map[int]float64{},
		PartialK: map[int]float64{},
	}
	for _, k := range ks {
		var sSum, fSum, pSum float64
		for i := 0; i < nInst; i++ {
			var sC, fC, pC int
			for s := 0; s < n; s++ {
				o := outs[i*n+s]
				if o.Syntax {
					sC++
				}
				if o.Full {
					fC++
				}
				if o.Partial {
					pC++
				}
			}
			sSum += metrics.PassAtK(n, sC, k)
			fSum += metrics.PassAtK(n, fC, k)
			pSum += metrics.PassAtK(n, pC, k)
		}
		rep.SyntaxK[k] = sSum / float64(nInst)
		rep.FuncK[k] = fSum / float64(nInst)
		rep.PartialK[k] = pSum / float64(nInst)
	}
	return rep
}

// DesignReport aggregates Design2SVA pass@k for one model and design
// category.
type DesignReport struct {
	Model   string
	Kind    string
	N       int
	SyntaxK map[int]float64
	FuncK   map[int]float64
}

// AggregateDesign computes Design2SVA pass@k from a flattened outcome
// grid (instance-major, like AggregatePassK); Full carries "proven".
// Design2SVA has no partial-equivalence notion, so the fold is
// AggregatePassK minus the Partial metric.
func AggregateDesign(model, kind string, nInst, n int, ks []int, outs []Outcome) DesignReport {
	pk := AggregatePassK(model, nInst, n, ks, outs)
	return DesignReport{
		Model: model, Kind: kind, N: n,
		SyntaxK: pk.SyntaxK, FuncK: pk.FuncK,
	}
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
// tokens, candidate parses, design parses). Benchmarks call it so
// each table measures a cold run — and so one benchmark's retained
// ASTs don't inflate the next one's GC mark phase; a long-lived
// service may call it to shed memory.
func ResetMemos() {
	refBLEU.Clear()
	refBLEUSize.Store(0)
	candParses.Clear()
	candParsesSize.Store(0)
	designParses.Clear()
	designParsesSize.Store(0)
}

// refBLEU memoizes each reference assertion's rendered source and
// BLEU tokens by identity: one reference is scored against every
// sample of every model, and rendering plus tokenizing it per
// judgment was a top-five cost of the machine tables. The map is
// cleared at a generous bound so a long-lived service cannot grow it
// without limit (references are per-load pointers).
var refBLEU sync.Map // *sva.Assertion -> metrics.RefTokens
var refBLEUSize atomic.Int64

func refTokens(ref *sva.Assertion) metrics.RefTokens {
	if t, ok := refBLEU.Load(ref); ok {
		return t.(metrics.RefTokens)
	}
	t := metrics.TokenizeRef(ref.String())
	if refBLEUSize.Add(1) > 1<<16 {
		refBLEU.Clear()
		refBLEUSize.Store(1)
	}
	refBLEU.Store(ref, t)
	return t
}

// candParses memoizes candidate parsing by source text: generic
// responses recur across instances and models, and every consumer
// treats parsed assertions as read-only, so one shared parse (and its
// downstream identity-keyed memo entries) serves them all. Bounded
// like refBLEU.
var candParses sync.Map // code -> candParse
var candParsesSize atomic.Int64

type candParse struct {
	a   *sva.Assertion
	err error
}

func parseCandidate(code string) (*sva.Assertion, error) {
	if v, ok := candParses.Load(code); ok {
		p := v.(candParse)
		return p.a, p.err
	}
	a, err := sva.ParseAssertion(code)
	if candParsesSize.Add(1) > 1<<16 {
		candParses.Clear()
		candParsesSize.Store(1)
	}
	candParses.Store(code, candParse{a, err})
	return a, err
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
	if err != nil {
		psp.SetBool("ok", false).End()
		return out
	}
	if err := sva.Validate(cand); err != nil {
		psp.SetBool("ok", false).End()
		return out
	}
	psp.SetBool("ok", true).End()
	res, err := cache.Check(cand, ref, sigs, opt)
	if err != nil {
		// elaboration failure (undeclared signals etc.) counts against
		// the syntax metric, mirroring the tool compile step
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

// designParses memoizes the design half of the Design2SVA parse: one
// design is judged against dozens of candidate snippets, and only the
// testbench half changes between them. A runner judges one design's
// candidates together, so the memo only needs to span the designs in
// flight: it is cleared at a small bound, keeping a run's parsed
// designs from accumulating in the live heap.
var designParses sync.Map // design source -> designParse
var designParsesSize atomic.Int64

const designParsesMax = 16

type designParse struct {
	f       *rtl.File
	defines map[string]string
}

// parseDesignBench parses design followed by bench with snippet
// spliced in — rtl.Parse(design+"\n"+bench') — from the memoized
// design half: the bench half is parsed with the design's macros in
// scope. It parses the whole file instead whenever the split could
// expand a macro differently: the design does not parse on its own
// (say, it uses a macro only the bench defines), the bench redefines
// one of the design's macros, or the snippet carries a directive.
func parseDesignBench(design, bench, snippet string) (*rtl.File, error) {
	bench = insertBeforeEndmodule(bench, snippet)
	if strings.Contains(snippet, "`") {
		return rtl.Parse(design + "\n" + bench)
	}
	var d designParse
	if v, ok := designParses.Load(design); ok {
		d = v.(designParse)
	} else if f, defines, err := rtl.ParseAfter(design, nil); err == nil {
		d = designParse{f, defines}
		if designParsesSize.Add(1) > designParsesMax {
			designParses.Clear()
			designParsesSize.Store(1)
		}
		designParses.Store(design, d)
	} else {
		return rtl.Parse(design + "\n" + bench)
	}
	bf, own, err := rtl.ParseAfter(bench, d.defines)
	for k, v := range own {
		if dv, ok := d.defines[k]; ok && dv != v {
			return rtl.Parse(design + "\n" + bench)
		}
	}
	if err != nil {
		return nil, err
	}
	f := &rtl.File{Modules: make([]*rtl.Module, 0, len(d.f.Modules)+len(bf.Modules))}
	f.Modules = append(append(f.Modules, d.f.Modules...), bf.Modules...)
	return f, nil
}

// JudgeDesign re-formats the testbench with the model's snippet,
// elaborates the bound DUT+testbench system, and model-checks the
// assertion — the paper's Design2SVA evaluation flow. The checker
// options (budget, depths, stats sink) pass through to the model
// checker; a non-nil design context shares its session pair with the
// other checks judged through it (one instance row's candidates), nil
// means a fresh pair per assertion. Verdicts are identical either way.
func JudgeDesign(inst *rtlgen.Instance, snippet string, opt mc.Options, design *mc.Design) (syntaxOK, proven bool) {
	psp := opt.Span.Child("parse").SetPhase(obs.PhaseParse)
	f, err := parseDesignBench(inst.Design, inst.Bench, snippet)
	if err != nil {
		psp.SetBool("ok", false).End()
		return false, false
	}
	sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
	if err != nil {
		psp.SetBool("ok", false).End()
		return false, false
	}
	if len(sys.Asserts) == 0 {
		psp.SetBool("ok", false).End()
		return false, false
	}
	// Validate every assertion's signals resolve (elaboration of the
	// assertion itself happens inside the checker).
	for _, a := range sys.Asserts {
		if sva.Validate(a) != nil {
			psp.SetBool("ok", false).End()
			return false, false
		}
	}
	psp.SetBool("ok", true).End()
	syntaxOK = true
	proven = true
	for _, a := range sys.Asserts {
		res, err := design.CheckAssertion(sys, a, opt)
		if err != nil {
			return false, false // elaboration error inside the property
		}
		if res.Status != mc.Proven {
			proven = false
		}
	}
	return syntaxOK, proven
}

// insertBeforeEndmodule splices a snippet into the testbench body.
func insertBeforeEndmodule(bench, snippet string) string {
	idx := strings.LastIndex(bench, "endmodule")
	if idx < 0 {
		return bench + "\n" + snippet
	}
	return bench[:idx] + "\n" + snippet + "\n" + bench[idx:]
}
