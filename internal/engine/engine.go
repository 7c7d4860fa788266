// Package engine is the unified evaluation runner for all FVEval
// sub-benchmarks. It flattens an entire run — every (model, instance,
// sample) tuple — into one grid, drains it with a bounded worker pool
// one instance row at a time (a worker judges all of an instance's
// (model, sample) jobs in order), and writes each outcome into its
// per-model slot; the final fold walks those slots in deterministic
// grid order. Final tables are therefore byte-identical regardless of
// worker count, scheduling order, sharding off/on differences aside,
// or whether the equivalence-check cache is enabled.
//
// Because a row is never split across workers, the duplicate
// responses of one instance meet the run-wide judgment memo one after
// another instead of being judged twice by racing workers.
//
// One engine owns one run-wide equiv.Cache: pass@k evaluation
// re-checks many duplicate candidate/reference pairs across samples
// and models, and memoizing equiv.Check collapses those repeated SAT
// solves. Engines derived with Reconfigure share the same cache pool,
// so a long-lived service can serve differently tuned requests while
// still collapsing duplicate solves across them. Horizontal scaling
// across processes is supported by Shard, which partitions the
// instance axis (never the sample axis, so per-instance pass@k folds
// stay complete within a shard).
//
// Every evaluation method (HumanGrid, MachineGrid, DesignGrid,
// HelperGrid) returns a *Grid, which the caller folds
// into per-model rows with Grid.Rows.
// Each takes a context.Context and an optional Observer: cancelling the
// context stops the worker pool and the method returns ctx.Err(); the
// observer receives one Progress per completed job, called from the
// worker that judged it under one lock, so calls are serialized (never
// concurrent) and arrive in completion order.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fveval/internal/core"
	"fveval/internal/equiv"
	"fveval/internal/fault"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/llm"
	"fveval/internal/mc"
	"fveval/internal/memo"
	"fveval/internal/obs"
	"fveval/internal/sva"
)

// Shard selects one horizontal slice of the instance axis: a process
// configured with {Index: i, Count: n} evaluates instances whose
// position modulo n equals i. The zero value disables sharding.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Enabled reports whether the shard actually partitions work.
func (s Shard) Enabled() bool { return s.Count > 1 }

// Validate rejects malformed shard specs.
func (s Shard) Validate() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("engine: negative shard %d/%d", s.Index, s.Count)
	}
	if s.Count > 0 && s.Index >= s.Count {
		return fmt.Errorf("engine: shard index %d out of range 0..%d", s.Index, s.Count-1)
	}
	return nil
}

func (s Shard) String() string {
	if !s.Enabled() {
		return "none"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Config tunes a benchmark run.
type Config struct {
	// Limit truncates the instance list (0 = all); tests use small
	// limits, benches run full size. Applied before sharding.
	Limit int `json:"limit,omitempty"`
	// Samples per instance for pass@k runs.
	Samples int `json:"samples,omitempty"`
	// Budget caps SAT conflicts per query (0 = default 200000). With
	// the incremental backend a query is one formal direction or one
	// model-checking depth; the budget is a per-call delta inside the
	// solver, so it keeps meaning "conflicts per query" across the
	// ramp.
	Budget int64 `json:"budget,omitempty"`
	// MaxBound caps the lasso bound the equivalence ramp may grow to
	// and the BMC falsification depth (0 = backend defaults, 16 each).
	MaxBound int `json:"max_bound,omitempty"`
	// Workers bounds the evaluation pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Shard restricts this process to one slice of the instance axis.
	Shard Shard `json:"shard,omitzero"`
	// NoCache disables every run-wide memo (equivalence checks and
	// judgments). Verdicts are identical either way; the memos only
	// skip duplicate solves.
	NoCache bool `json:"no_cache,omitempty"`
	// SimPatterns sets how many bit-parallel simulation patterns the
	// formal backend's refute-before-solve prefilter evaluates per
	// query (rounded up to 64-lane rounds; 0 = default 128). The
	// prefilter is refute-only — verdicts, reports, and rendered
	// tables are byte-identical with it on or off (DESIGN.md §10).
	SimPatterns int `json:"sim_patterns,omitempty"`
	// NoSim disables the simulation prefilter entirely: every formal
	// query goes straight to the SAT solver, as before PR 5.
	NoSim bool `json:"no_sim,omitempty"`
}

// Validate rejects configurations that would silently misbehave:
// every knob is a size or a budget, so negative values are always a
// caller bug, not a request for a default.
func (c Config) Validate() error {
	if c.Limit < 0 {
		return fmt.Errorf("engine: negative Limit %d", c.Limit)
	}
	if c.Samples < 0 {
		return fmt.Errorf("engine: negative Samples %d", c.Samples)
	}
	if c.Budget < 0 {
		return fmt.Errorf("engine: negative Budget %d", c.Budget)
	}
	if c.MaxBound < 0 {
		return fmt.Errorf("engine: negative MaxBound %d", c.MaxBound)
	}
	if c.Workers < 0 {
		return fmt.Errorf("engine: negative Workers %d", c.Workers)
	}
	if c.SimPatterns < 0 {
		return fmt.Errorf("engine: negative SimPatterns %d", c.SimPatterns)
	}
	return c.Shard.Validate()
}

// PassKSamples is n, the samples a pass@k run draws per instance: the
// paper's 5 when Samples is 0 or 1, otherwise Samples. Every sampled
// grid draws this many, and pass@k cut-offs are resolved against it.
func (c Config) PassKSamples() int {
	if c.Samples < 2 {
		return 5
	}
	return c.Samples
}

// withDefaults resolves the zero-value knobs; Validate has already
// rejected negatives, so no clamping happens here.
func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = 200000
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Samples == 0 {
		c.Samples = 1
	}
	if c.SimPatterns == 0 {
		c.SimPatterns = 128
	}
	if c.NoSim {
		c.SimPatterns = 0
	}
	return c
}

// Progress describes one completed evaluation job.
type Progress struct {
	// Done jobs out of Total in this grid.
	Done, Total int
	// Model and Sample locate the job on the grid; InstanceID names
	// the evaluated instance.
	Model      string
	InstanceID string
	Sample     int
	// Outcome is the job's judged result.
	Outcome core.Outcome
	// Wall is the job's evaluation wall-clock (generation + judgment),
	// measured at the worker.
	Wall time.Duration
}

// Observer receives per-job progress. Each call comes from the worker
// that judged the job, under a lock the grid's workers share, so calls
// are serialized in completion order and implementations need no
// locking against each other (but must not block for long — every
// worker waits on that lock to report its next job).
type Observer func(Progress)

// state is the memo pool an engine family shares: the equivalence
// cache, the judgment memo, and the formal backend counters. It is
// split from Engine so Reconfigure can derive engines with different
// run configurations that still collapse duplicate solves together.
type state struct {
	cache  *equiv.Cache
	formal *formal.Stats // incremental-backend reuse counters (never nil)
	// bank is the run-wide counterexample pattern bank feeding the
	// simulation prefilter (never nil; unused when NoSim). Like the
	// equivalence cache it is shared across Reconfigure-derived
	// engines, so one request's counterexamples refute the next
	// request's queries.
	bank *formal.Bank

	// judgments is the judgment memo: identical extracted responses
	// recur across samples and models, so each task family's whole
	// judgment (parse, BLEU and equivalence; elaborate and prove; the
	// lemma pipeline) is memoized per (options, family, instance,
	// response); memoKey builds every key. nil when caching is
	// disabled.
	judgments *memo.Memo[string, core.Outcome]

	// refineRounds counts FeedbackModel retry rounds performed by
	// refinement runs on this pool — the per-run delta is surfaced as
	// the RefineRounds report stat.
	refineRounds atomic.Int64
}

func newState(noCache bool) *state {
	st := &state{formal: &formal.Stats{}, bank: formal.NewBank(0)}
	if !noCache {
		st.cache = equiv.NewCache()
		st.judgments = memo.New[string, core.Outcome](1 << 16)
	}
	return st
}

// memoKey builds every judgment-memo key: the resolved options that
// can change a verdict (Budget and MaxBound, the set equiv.Cache.key
// hashes) and then the parts naming the judged content, a family tag
// first. Engines derived with Reconfigure share the memo, so without
// the options one request's verdicts would answer another's
// differently tuned queries.
func (e *Engine) memoKey(parts ...string) string {
	b := strconv.AppendInt(nil, e.cfg.Budget, 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(e.cfg.MaxBound), 10)
	for _, p := range parts {
		b = append(b, 0)
		b = append(b, p...)
	}
	return string(b)
}

// judged returns key's memoized judgment, computing it on a miss; a
// hit marks ctx's job span.
func (e *Engine) judged(ctx context.Context, key string, compute func() core.Outcome) core.Outcome {
	out, hit := e.st.judgments.Get(key, compute)
	if hit {
		obs.SpanFrom(ctx).SetBool("memo_hit", true)
	}
	return out
}

// Engine executes benchmark runs over one shared equivalence cache.
type Engine struct {
	cfg Config
	st  *state
}

// Family tags open every judgment-memo key, so the task families
// share one memo without sharing entries.
const (
	familyHuman   = "human"
	familyMachine = "machine"
	familyDesign  = "design2sva"
	familyHelper  = "agr"
)

// New builds an engine; cfg must be valid (see Config.Validate — New
// panics on malformed configs so misconfigured processes fail loudly
// instead of silently evaluating the wrong thing). Callers holding
// untrusted configuration should call Validate first and surface the
// error.
func New(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg.withDefaults(), st: newState(cfg.NoCache)}
}

// Reconfigure derives an engine that runs under cfg but shares this
// engine's memo pool (equivalence cache, judgment memo, formal
// counters), so a service can serve differently tuned requests from
// one cache. When cfg flips the caching mode relative to this
// engine's pool, the derived engine gets a fresh pool instead:
// sharing would either leak memoized verdicts into a NoCache run or
// silently re-enable memos.
func (e *Engine) Reconfigure(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := e.st
	if cfg.NoCache != (st.cache == nil) {
		st = newState(cfg.NoCache)
	}
	return &Engine{cfg: cfg.withDefaults(), st: st}, nil
}

// judgeTranslation memoizes core.JudgeTranslation per (family,
// instance, extracted code). The judgment depends only on the code and
// the instance's reference environment — never on the prompt or shot
// count — so entries are shared across samples, models, and shot
// settings.
func (e *Engine) judgeTranslation(ctx context.Context, family, id, response string, ref *sva.Assertion, sigs *equiv.Sigs) core.Outcome {
	// ExtractCode is idempotent, so the extracted code stands in for
	// the raw response.
	code := llm.ExtractCode(response)
	return e.judged(ctx, e.memoKey(family, id, code), func() core.Outcome {
		return core.JudgeTranslation(id, code, ref, sigs, e.equivOptions(ctx), e.st.cache)
	})
}

// Config returns the resolved (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// CacheStats snapshots the equivalence-cache counters; all zero when
// the cache is disabled.
func (e *Engine) CacheStats() equiv.CacheStats { return e.st.cache.Stats() }

// FormalStats snapshots the incremental formal backend's solver-reuse
// and bound-ramp counters for this engine's runs.
func (e *Engine) FormalStats() formal.Snapshot { return e.st.formal.Snapshot() }

// search resolves the formal-search options both checkers share; the
// context's current span (if the run is traced) rides along so the
// checkers can hang their prefilter and solver spans under the job.
// The pool's pattern bank is left out when the prefilter is off: no
// point collecting patterns nothing will replay.
func (e *Engine) search(ctx context.Context) formal.Search {
	s := formal.Search{
		Budget:      e.cfg.Budget,
		SimPatterns: e.cfg.SimPatterns,
		Stats:       e.st.formal,
		Span:        obs.SpanFrom(ctx),
	}
	if s.SimPatterns > 0 {
		s.Bank = e.st.bank
	}
	return s
}

// equivOptions resolves the equivalence-checker options for this run.
func (e *Engine) equivOptions(ctx context.Context) equiv.Options {
	return equiv.Options{MaxBound: e.cfg.MaxBound, Search: e.search(ctx)}
}

// mcOptions resolves the model-checker options for this run. MaxBound
// caps the falsification depth; proof depths stay at backend defaults.
func (e *Engine) mcOptions(ctx context.Context) mc.Options {
	return mc.Options{BMCDepth: e.cfg.MaxBound, Search: e.search(ctx)}
}

// ---- row-scheduled job grid ---------------------------------------------

// job identifies one evaluation cell in the flattened grid.
type job struct {
	model, inst, sample int
}

// slot addresses a job's outcome: outcomes[model][inst*samples+sample].
func (j job) slot(samples int) int { return j.inst*samples + j.sample }

// evalFunc judges one job.
type evalFunc func(ctx context.Context, j job) core.Outcome

// runGrid drains the full models × instances × samples grid through a
// bounded worker pool, one instance row at a time: a worker claims the
// next instance from a shared counter, builds its judge with row(inst),
// and runs all of the row's (model, sample) jobs through it in order.
// The duplicate responses of one row thus hit the run-wide memo instead
// of being judged twice by racing workers, and whatever row(inst) sets
// up for the instance, such as its prompt or its model-checking
// context, lives exactly as long as the row.
// Each job still gets its own span, fault seam and cancellation check.
// A worker writes each outcome straight into its deterministic slot
// (a row belongs to one worker, so no slot has two writers) and then
// notifies the observer under one lock, which also keeps the Done
// count; aggregation folds the slots in grid order, so the result is
// independent of worker count and completion order.
//
// The grid carries this engine's shard provenance: total is the
// instance count before sharding, nInst this shard's.
//
// Cancelling ctx stops every worker before its next job and its next
// row; the grid returns ctx.Err() once in-flight jobs have drained,
// and no grid.
func (e *Engine) runGrid(ctx context.Context, models []llm.Model, total, nInst, nSamples int, row func(inst int) evalFunc, observer Observer) (*Grid, error) {
	g := &Grid{Models: make([]string, len(models)), Total: total, Local: nInst, Samples: nSamples,
		Shard: e.cfg.Shard, Outcomes: make([][]core.Outcome, len(models))}
	for m, model := range models {
		g.Models[m] = model.Name()
		g.Outcomes[m] = make([]core.Outcome, nInst*nSamples)
	}
	jobs := len(models) * nInst * nSamples

	// An injected engine.job fault fails the whole grid through the
	// cancel cause, so callers see the injected error rather than a
	// bare context.Canceled (which would misclassify as a user cancel).
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)

	var (
		next atomic.Int64 // the next unclaimed instance row
		mu   sync.Mutex   // serializes observer calls and guards done
		done int
	)
	// evalJob judges one job inside its span (model/sample known up
	// front, instance and verdict attached after), stores the outcome
	// and reports it; when the run is untraced the span calls are nil
	// no-ops.
	evalJob := func(eval evalFunc, j job) {
		jctx, sp := obs.Start(ctx, "job")
		sp.SetStr("model", g.Models[j.model]).SetInt("sample", int64(j.sample))
		start := time.Now()
		out := eval(jctx, j)
		wall := time.Since(start)
		sp.SetStr("instance", out.InstanceID).
			SetBool("syntax", out.Syntax).
			SetBool("func", out.Full)
		sp.End()
		g.Outcomes[j.model][j.slot(nSamples)] = out
		if observer == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		observer(Progress{
			Done: done, Total: jobs,
			Model:      g.Models[j.model],
			InstanceID: out.InstanceID,
			Sample:     j.sample,
			Outcome:    out,
			Wall:       wall,
		})
	}
	// evalRow judges one instance row; false means the grid is over.
	evalRow := func(inst int) bool {
		eval := row(inst)
		for m := range models {
			for s := 0; s < nSamples; s++ {
				if ctx.Err() != nil {
					return false
				}
				if err := fault.Hit(fault.EngineJob); err != nil {
					abort(err)
					return false
				}
				evalJob(eval, job{model: m, inst: inst, sample: s})
			}
		}
		return true
	}

	var workers sync.WaitGroup
	for range min(e.cfg.Workers, nInst) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for ctx.Err() == nil {
				inst := int(next.Add(1) - 1)
				if inst >= nInst || !evalRow(inst) {
					return
				}
			}
		}()
	}
	workers.Wait()
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return g, nil
}

// generate runs one model call under a prompt-phase span, so traced
// runs attribute generation wall-clock separately from judgment.
func generate(ctx context.Context, m llm.Model, p *llm.Prompt, sample int) string {
	sp := obs.SpanFrom(ctx).Child("generate")
	sp.SetPhase(obs.PhasePrompt)
	resp := m.Generate(p, sample)
	sp.End()
	return resp
}

// clip truncates to cfg.Limit, then keeps this shard's instances; it
// also returns the post-limit pre-shard count, the grid's global
// instance-axis length.
func clip[T any](xs []T, cfg Config) ([]T, int) {
	if cfg.Limit > 0 && cfg.Limit < len(xs) {
		xs = xs[:cfg.Limit]
	}
	total := len(xs)
	if !cfg.Shard.Enabled() {
		return xs, total
	}
	var out []T
	for i, x := range xs {
		if i%cfg.Shard.Count == cfg.Shard.Index {
			out = append(out, x)
		}
	}
	return out, total
}

// ---- NL2SVA-Human -------------------------------------------------------

// HumanGrid evaluates the NL2SVA-Human grid and returns the raw
// outcome lattice with shard provenance; sampled draws
// Config.PassKSamples per instance, otherwise one greedy sample.
func (e *Engine) HumanGrid(ctx context.Context, models []llm.Model, sampled bool, obs Observer) (*Grid, error) {
	insts, err := core.LoadHuman()
	if err != nil {
		return nil, err
	}
	kept, total := clip(insts, e.cfg)
	n := 1
	if sampled {
		n = e.cfg.PassKSamples()
	}
	return e.runGrid(ctx, models, total, len(kept), n, func(i int) evalFunc {
		// A prompt depends only on its instance: one per row, which
		// models treat read-only.
		in := kept[i]
		prompt := llm.BuildHumanPrompt(in.ID, in.Testbench.Source, in.NL, in.Reference)
		return func(jctx context.Context, j job) core.Outcome {
			resp := generate(jctx, models[j.model], prompt, j.sample)
			return e.judgeTranslation(jctx, familyHuman, in.ID, resp, in.Reference, in.Sigs)
		}
	}, obs)
}

// ---- NL2SVA-Machine -----------------------------------------------------

// MachineGrid evaluates the NL2SVA-Machine grid at a shot count and
// returns the raw outcome lattice with shard provenance; sampled draws
// Config.PassKSamples per instance, otherwise one greedy sample.
//
// A positive retries runs the CEX-guided refinement loop (Figure R's
// x-axis): each model is wrapped in an llm.FeedbackModel whose check
// renders the formal backend's witness traces into the retry prompt
// (core.RefineFeedback), so a candidate refuted by the equivalence
// checker retries against the concrete counterexample, at most retries
// times. Model names on the grid stay the base names, so pass@k
// columns line up across retry budgets.
func (e *Engine) MachineGrid(ctx context.Context, models []llm.Model, shots, count int, sampled bool, retries int, obs Observer) (*Grid, error) {
	kept, total := clip(core.LoadMachine(count), e.cfg)
	n := 1
	if sampled {
		n = e.cfg.PassKSamples()
	}
	gen := models
	if retries > 0 {
		gen = e.feedbackModels(models, kept, retries)
	}
	return e.runGrid(ctx, models, total, len(kept), n, func(i int) evalFunc {
		in := kept[i]
		prompt := llm.BuildMachinePrompt(in.ID, in.NL, shots, in.Reference)
		return func(jctx context.Context, j job) core.Outcome {
			resp := generate(jctx, gen[j.model], prompt, j.sample)
			return e.judgeTranslation(jctx, familyMachine, in.ID, resp, in.Reference, in.Sigs)
		}
	}, obs)
}

// ---- Design2SVA ---------------------------------------------------------

// DesignGrid evaluates the Design2SVA grid for one design category
// (always sampled: Config.PassKSamples per instance) and
// returns the raw outcome lattice with shard provenance.
func (e *Engine) DesignGrid(ctx context.Context, models []llm.Model, kind string, obs Observer) (*Grid, error) {
	kept, total := clip(rtlgen.Sweep96(kind), e.cfg)
	return e.runGrid(ctx, models, total, len(kept), e.cfg.PassKSamples(), func(i int) evalFunc {
		inst := kept[i]
		prompt := llm.BuildDesignPrompt(inst)
		// One judging context per row: the row's candidates share its
		// elaborated base and its session pair, and it dies with the row.
		row := core.NewDesignRow(inst)
		return func(jctx context.Context, j job) core.Outcome {
			code := llm.ExtractCode(generate(jctx, models[j.model], prompt, j.sample))
			return e.judged(jctx, e.memoKey(familyDesign, kind, inst.ID, code), func() core.Outcome {
				return judgeDesign(inst, code, e.mcOptions(jctx), row)
			})
		}
	}, obs)
}

// judgeDesign and judgeHelper are the judgments the Design2SVA and
// AGR grids memoize; tests swap them to count invocations.
var (
	judgeDesign = core.JudgeDesign
	judgeHelper = core.JudgeHelper
)
