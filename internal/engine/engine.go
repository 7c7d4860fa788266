// Package engine is the unified evaluation runner for all FVEval
// sub-benchmarks. It flattens an entire run — every (model, instance,
// sample) tuple — into one grid, drains it with a bounded worker pool
// one instance row at a time (a worker judges all of an instance's
// (model, sample) jobs in order), and streams outcomes into per-model
// aggregators whose final fold walks outcome slots in deterministic
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
// Every evaluation method takes a context.Context and an optional
// Observer: cancelling the context stops feeding the worker pool and
// the method returns ctx.Err(); the observer receives one Progress
// per completed job, delivered from the collector goroutine (calls
// are serialized, never concurrent).
package engine

import (
	"context"
	"fmt"
	"runtime"
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
	// NoCache disables every run-wide memo (equivalence checks,
	// translation judgments, design judgments). Verdicts are identical
	// either way; the memos only skip duplicate solves.
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

// Observer receives per-job progress. Calls come from the run's
// single collector goroutine, so implementations need no locking
// against each other (but must not block for long — they gate result
// collection).
type Observer func(Progress)

// state is the memo pool an engine family shares: the equivalence
// cache, the judgment memos, and the formal backend counters. It is
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

	// Judgment memos: identical extracted responses recur across
	// samples and models, so each task family's whole judgment (parse,
	// BLEU and equivalence; elaborate and prove; the lemma pipeline)
	// is memoized per (instance, response). nil when caching is
	// disabled.
	trans  *memo[core.Outcome]
	design *memo[designCell]
	helper *memo[helperCell]

	// refineRounds counts FeedbackModel retry rounds performed by
	// refinement runs on this pool — the per-run delta is surfaced as
	// the RefineRounds report stat.
	refineRounds atomic.Int64
}

func newState(noCache bool) *state {
	st := &state{formal: &formal.Stats{}, bank: formal.NewBank(0)}
	if !noCache {
		st.cache = equiv.NewCache()
		st.trans = newMemo[core.Outcome]()
		st.design = newMemo[designCell]()
		st.helper = newMemo[helperCell]()
	}
	return st
}

// memo is a run-wide judgment memo keyed by content. A nil memo
// (NoCache) computes every lookup.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

func newMemo[V any]() *memo[V] { return &memo[V]{m: map[string]V{}} }

// get returns key's memoized value, computing and storing it on a
// miss; a hit marks ctx's job span. Judgments are deterministic, so a
// concurrent duplicate computation (possible only between separate
// runs sharing the pool) stores the same value.
func (c *memo[V]) get(ctx context.Context, key string, compute func() V) V {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		obs.SpanFrom(ctx).SetBool("memo_hit", true)
		return v
	}
	v = compute()
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
	return v
}

// Engine executes benchmark runs over one shared equivalence cache.
type Engine struct {
	cfg Config
	st  *state
}

type designCell struct{ syntax, proven bool }

// dataset tags namespace memo keys across sub-benchmarks.
const (
	datasetHuman   = "human"
	datasetMachine = "machine"
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
// engine's memo pool (equivalence cache, judgment memos, formal
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

// judgeTranslation memoizes core.JudgeTranslation per (dataset,
// instance, extracted code). The judgment depends only on the code and
// the instance's reference environment — never on the prompt or shot
// count — so entries are shared across samples, models, and shot
// settings.
func (e *Engine) judgeTranslation(ctx context.Context, dataset, id, response string, ref *sva.Assertion, sigs *equiv.Sigs) core.Outcome {
	// ExtractCode is idempotent, so the extracted code stands in for
	// the raw response.
	code := llm.ExtractCode(response)
	return e.st.trans.get(ctx, dataset+"\x00"+id+"\x00"+code, func() core.Outcome {
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

// SimStats snapshots the simulation-prefilter counters (a projection
// of FormalStats, for callers that only surface the prefilter).
func (e *Engine) SimStats() formal.SimStats { return e.st.formal.Snapshot().Sim }

// simBank resolves the pattern bank the formal backend should use:
// the shared pool bank, or nil when the prefilter is off (no point
// collecting patterns nothing will replay).
func (e *Engine) simBank() *formal.Bank {
	if e.cfg.SimPatterns == 0 {
		return nil
	}
	return e.st.bank
}

// equivOptions resolves the equivalence-checker options for this run;
// the context's current span (if the run is traced) rides along so the
// checker can hang its ramp-step and prefilter spans under the job.
func (e *Engine) equivOptions(ctx context.Context) equiv.Options {
	return equiv.Options{
		Budget:      e.cfg.Budget,
		MaxBound:    e.cfg.MaxBound,
		SimPatterns: e.cfg.SimPatterns,
		Bank:        e.simBank(),
		Stats:       e.st.formal,
		Span:        obs.SpanFrom(ctx),
	}
}

// mcOptions resolves the model-checker options for this run. MaxBound
// caps the falsification depth; proof depths stay at backend defaults.
func (e *Engine) mcOptions(ctx context.Context) mc.Options {
	return mc.Options{
		Budget:      e.cfg.Budget,
		BMCDepth:    e.cfg.MaxBound,
		SimPatterns: e.cfg.SimPatterns,
		Bank:        e.simBank(),
		Stats:       e.st.formal,
		Span:        obs.SpanFrom(ctx),
	}
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
// bounded worker pool, one instance row at a time: a worker takes an
// instance, builds its judge with row(inst), and runs all of the
// row's (model, sample) jobs through it in order. The duplicate
// responses of one row thus hit the run-wide memo instead of being
// judged twice by racing workers, and whatever row(inst) sets up for
// the instance, such as its prompt or its model-checking context,
// lives exactly as long as the row.
// Each job still gets its own span, fault seam and cancellation check.
// Workers stream results to a single collector goroutine that places
// each outcome in its deterministic slot and notifies the observer;
// aggregation then folds the slots in grid order, so the result is
// independent of worker count and completion order.
//
// Cancelling ctx stops handing out rows and stops every worker before
// its next job; the grid returns ctx.Err() once in-flight jobs have
// drained, and the partial outcome grid is discarded by every caller.
func (e *Engine) runGrid(ctx context.Context, models []string, nInst, nSamples int, row func(inst int) evalFunc, observer Observer) ([][]core.Outcome, error) {
	nModels := len(models)
	outcomes := make([][]core.Outcome, nModels)
	for m := range outcomes {
		outcomes[m] = make([]core.Outcome, nInst*nSamples)
	}
	total := nModels * nInst * nSamples
	if total == 0 {
		return outcomes, ctx.Err()
	}

	// An injected engine.job fault fails the whole grid through the
	// cancel cause, so callers see the injected error rather than a
	// bare context.Canceled (which would misclassify as a user cancel).
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)

	rows := make(chan int, e.cfg.Workers)
	type result struct {
		j    job
		out  core.Outcome
		wall time.Duration
	}
	results := make(chan result, e.cfg.Workers)

	// evalJob wraps one evaluation in its per-job span (model/sample
	// known up front, instance and verdict attached after) and times
	// it; when the run is untraced the span calls are nil no-ops.
	evalJob := func(eval evalFunc, j job) result {
		jctx, sp := obs.Start(ctx, "job")
		sp.SetStr("model", models[j.model]).SetInt("sample", int64(j.sample))
		start := time.Now()
		out := eval(jctx, j)
		wall := time.Since(start)
		sp.SetStr("instance", out.InstanceID).
			SetBool("syntax", out.Syntax).
			SetBool("func", out.Full)
		sp.End()
		return result{j: j, out: out, wall: wall}
	}
	// evalRow judges one instance row; false means the grid is over.
	evalRow := func(inst int) bool {
		eval := row(inst)
		for m := 0; m < nModels; m++ {
			for s := 0; s < nSamples; s++ {
				if ctx.Err() != nil {
					return false
				}
				if err := fault.Hit(fault.EngineJob); err != nil {
					abort(err)
					return false
				}
				select {
				case results <- evalJob(eval, job{model: m, inst: inst, sample: s}):
				case <-ctx.Done():
					return false
				}
			}
		}
		return true
	}

	var workers sync.WaitGroup
	w := min(e.cfg.Workers, nInst)
	for i := 0; i < w; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case inst, ok := <-rows:
					if !ok || !evalRow(inst) {
						return
					}
				}
			}
		}()
	}

	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		done := 0
		for r := range results {
			outcomes[r.j.model][r.j.slot(nSamples)] = r.out
			done++
			if observer != nil {
				observer(Progress{
					Done: done, Total: total,
					Model:      models[r.j.model],
					InstanceID: r.out.InstanceID,
					Sample:     r.j.sample,
					Outcome:    r.out,
					Wall:       r.wall,
				})
			}
		}
	}()

feed:
	for i := 0; i < nInst; i++ {
		select {
		case rows <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(rows)
	workers.Wait()
	close(results)
	collector.Wait()
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return outcomes, nil
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

// names extracts the model-name axis for progress reporting.
func names(models []llm.Model) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.Name()
	}
	return out
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

// passKSamples resolves the sample count for pass@k runs (the paper
// draws 5 samples; a config of 0/1 means "use the paper default").
func (e *Engine) passKSamples() int {
	if e.cfg.Samples < 2 {
		return 5
	}
	return e.cfg.Samples
}

// ---- NL2SVA-Human -------------------------------------------------------

// HumanGrid evaluates the NL2SVA-Human grid and returns the raw
// outcome lattice with shard provenance; sampled draws passKSamples
// per instance, otherwise one greedy sample.
func (e *Engine) HumanGrid(ctx context.Context, models []llm.Model, sampled bool, obs Observer) (*Grid, error) {
	insts, err := core.LoadHuman()
	if err != nil {
		return nil, err
	}
	kept, total := clip(insts, e.cfg)
	n := 1
	if sampled {
		n = e.passKSamples()
	}
	outs, err := e.runGrid(ctx, names(models), len(kept), n, func(i int) evalFunc {
		// A prompt depends only on its instance: one per row, which
		// models treat read-only.
		in := kept[i]
		prompt := llm.BuildHumanPrompt(in.ID, in.Testbench.Source, in.NL, in.Reference)
		return func(jctx context.Context, j job) core.Outcome {
			resp := generate(jctx, models[j.model], prompt, j.sample)
			return e.judgeTranslation(jctx, datasetHuman, in.ID, resp, in.Reference, in.Sigs)
		}
	}, obs)
	if err != nil {
		return nil, err
	}
	return e.newGrid(names(models), total, len(kept), n, outs), nil
}

// NL2SVAHuman evaluates models with greedy decoding (Table 1).
func (e *Engine) NL2SVAHuman(ctx context.Context, models []llm.Model, obs Observer) ([]core.ModelReport, error) {
	g, err := e.HumanGrid(ctx, models, false, obs)
	if err != nil {
		return nil, err
	}
	return g.ModelReports(), nil
}

// NL2SVAHumanPassK evaluates pass@k with multiple samples (Table 2).
func (e *Engine) NL2SVAHumanPassK(ctx context.Context, models []llm.Model, ks []int, obs Observer) ([]core.PassKReport, error) {
	g, err := e.HumanGrid(ctx, models, true, obs)
	if err != nil {
		return nil, err
	}
	return g.PassKReports(ks), nil
}

// ---- NL2SVA-Machine -----------------------------------------------------

// MachineGrid evaluates the NL2SVA-Machine grid at a shot count and
// returns the raw outcome lattice with shard provenance; sampled draws
// passKSamples per instance, otherwise one greedy sample.
func (e *Engine) MachineGrid(ctx context.Context, models []llm.Model, shots, count int, sampled bool, obs Observer) (*Grid, error) {
	kept, total := clip(core.LoadMachine(count), e.cfg)
	n := 1
	if sampled {
		n = e.passKSamples()
	}
	outs, err := e.runGrid(ctx, names(models), len(kept), n, func(i int) evalFunc {
		in := kept[i]
		prompt := llm.BuildMachinePrompt(in.ID, in.NL, shots, in.Reference)
		return func(jctx context.Context, j job) core.Outcome {
			resp := generate(jctx, models[j.model], prompt, j.sample)
			return e.judgeTranslation(jctx, datasetMachine, in.ID, resp, in.Reference, in.Sigs)
		}
	}, obs)
	if err != nil {
		return nil, err
	}
	return e.newGrid(names(models), total, len(kept), n, outs), nil
}

// NL2SVAMachine evaluates the machine benchmark at a shot count
// (Table 3 columns).
func (e *Engine) NL2SVAMachine(ctx context.Context, models []llm.Model, shots, count int, obs Observer) ([]core.ModelReport, error) {
	g, err := e.MachineGrid(ctx, models, shots, count, false, obs)
	if err != nil {
		return nil, err
	}
	return g.ModelReports(), nil
}

// NL2SVAMachinePassK evaluates machine pass@k at 3-shot (Table 4).
func (e *Engine) NL2SVAMachinePassK(ctx context.Context, models []llm.Model, ks []int, count int, obs Observer) ([]core.PassKReport, error) {
	g, err := e.MachineGrid(ctx, models, 3, count, true, obs)
	if err != nil {
		return nil, err
	}
	return g.PassKReports(ks), nil
}

// ---- Design2SVA ---------------------------------------------------------

// DesignGrid evaluates the Design2SVA grid for one design category
// (always sampled: the paper draws passKSamples per instance) and
// returns the raw outcome lattice with shard provenance.
func (e *Engine) DesignGrid(ctx context.Context, models []llm.Model, kind string, obs Observer) (*Grid, error) {
	kept, total := clip(rtlgen.Sweep96(kind), e.cfg)
	n := e.passKSamples()
	outs, err := e.runGrid(ctx, names(models), len(kept), n, func(i int) evalFunc {
		inst := kept[i]
		prompt := llm.BuildDesignPrompt(inst)
		// One model-checking context per row: the row's candidates share
		// its session pair, and it dies with the row.
		design := mc.NewDesign()
		return func(jctx context.Context, j job) core.Outcome {
			resp := generate(jctx, models[j.model], prompt, j.sample)
			code := llm.ExtractCode(resp)
			c := e.st.design.get(jctx, kind+"\x00"+inst.ID+"\x00"+code, func() designCell {
				syn, prov := judgeDesign(inst, code, e.mcOptions(jctx), design)
				return designCell{syntax: syn, proven: prov}
			})
			return core.Outcome{InstanceID: inst.ID, Response: code, Syntax: c.syntax, Full: c.proven}
		}
	}, obs)
	if err != nil {
		return nil, err
	}
	return e.newGrid(names(models), total, len(kept), n, outs), nil
}

// Design2SVA evaluates models on a design category with n samples per
// instance (Table 5 halves). Outcome.Full carries "proven".
func (e *Engine) Design2SVA(ctx context.Context, models []llm.Model, kind string, obs Observer) ([]core.DesignReport, error) {
	return e.design2SVA(ctx, models, kind, []int{1, 5}, obs)
}

// Design2SVAKs is Design2SVA with a caller-chosen pass@k set.
func (e *Engine) Design2SVAKs(ctx context.Context, models []llm.Model, kind string, ks []int, obs Observer) ([]core.DesignReport, error) {
	return e.design2SVA(ctx, models, kind, ks, obs)
}

func (e *Engine) design2SVA(ctx context.Context, models []llm.Model, kind string, ks []int, obs Observer) ([]core.DesignReport, error) {
	g, err := e.DesignGrid(ctx, models, kind, obs)
	if err != nil {
		return nil, err
	}
	return g.DesignReports(kind, ks), nil
}

// judgeDesign and judgeHelper are the judgments the Design2SVA and
// AGR grids memoize; tests swap them to count invocations.
var (
	judgeDesign = core.JudgeDesign
	judgeHelper = core.JudgeHelper
)

// ---- one-shot conveniences ----------------------------------------------

// RunNL2SVAHuman runs Table 1's evaluation on a fresh engine.
func RunNL2SVAHuman(models []llm.Model, cfg Config) ([]core.ModelReport, error) {
	return New(cfg).NL2SVAHuman(context.Background(), models, nil)
}

// RunNL2SVAHumanPassK runs Table 2's evaluation on a fresh engine.
func RunNL2SVAHumanPassK(models []llm.Model, ks []int, cfg Config) ([]core.PassKReport, error) {
	return New(cfg).NL2SVAHumanPassK(context.Background(), models, ks, nil)
}

// RunNL2SVAMachine runs one shot-setting of Table 3 on a fresh engine.
func RunNL2SVAMachine(models []llm.Model, shots, count int, cfg Config) ([]core.ModelReport, error) {
	return New(cfg).NL2SVAMachine(context.Background(), models, shots, count, nil)
}

// RunNL2SVAMachinePassK runs Table 4's evaluation on a fresh engine.
func RunNL2SVAMachinePassK(models []llm.Model, ks []int, count int, cfg Config) ([]core.PassKReport, error) {
	return New(cfg).NL2SVAMachinePassK(context.Background(), models, ks, count, nil)
}

// RunDesign2SVA runs one category half of Table 5 on a fresh engine.
func RunDesign2SVA(models []llm.Model, kind string, cfg Config) ([]core.DesignReport, error) {
	return New(cfg).Design2SVA(context.Background(), models, kind, nil)
}

// Figure6 runs the NL2SVA-Human evaluation and renders the BLEU-vs-
// functional-correctness correlation analysis.
func (e *Engine) Figure6(ctx context.Context, models []llm.Model, obs Observer) (string, error) {
	reports, err := e.NL2SVAHuman(ctx, models, obs)
	if err != nil {
		return "", err
	}
	return core.Figure6(reports), nil
}
