// Package task is the task-centric public surface of the FVEval
// reproduction: a registry of Specs describing every sub-benchmark
// (the paper's tables and figures), a Request type naming one task
// plus parameter overrides, and an Engine whose single Run entry
// point executes any registered task and returns one unified Report.
//
// The registry is the one way to run a workload: a new workload is a
// new Spec, not a new exported function, and everything registered is
// automatically reachable from the CLI (-task/-list), the facade
// (fveval.Run), and the HTTP service (cmd/fvevald).
package task

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fveval/internal/engine"
	"fveval/internal/llm"
)

// Kind classifies how a task evaluates and aggregates.
type Kind string

const (
	// KindGreedy draws one greedy sample per instance and reports mean
	// syntax/func/partial/BLEU per model.
	KindGreedy Kind = "greedy"
	// KindPassK draws n samples per instance and reports unbiased
	// pass@k per metric.
	KindPassK Kind = "passk"
	// KindShots runs the greedy flow once per in-context shot count
	// and groups the results by shot setting.
	KindShots Kind = "shots"
	// KindDesign runs the Design2SVA flow once per design category.
	KindDesign Kind = "design"
	// KindStatic renders a dataset artifact without evaluating models.
	KindStatic Kind = "static"
	// KindFigure renders one of the paper's figures (figure 6 also
	// evaluates models; the length-distribution figures are static).
	KindFigure Kind = "figure"
)

// Params are the tunable knobs of a task. A Spec carries the paper's
// defaults; a Request may override any field the spec accepts (see
// Spec.Accepts). The zero value of a field means "keep the default".
type Params struct {
	// Models names the evaluated proxy models.
	Models []string `json:"models,omitempty"`
	// Shots lists the in-context example counts (KindShots).
	Shots []int `json:"shots,omitempty"`
	// Ks lists the pass@k cut-offs (KindPassK, KindDesign).
	Ks []int `json:"ks,omitempty"`
	// Count sizes the synthetic NL2SVA-Machine dataset.
	Count int `json:"count,omitempty"`
	// Kinds lists the design categories (KindDesign).
	Kinds []string `json:"kinds,omitempty"`
	// Rounds lists the CEX-guided refinement retry budgets (the
	// refinement task runs one grid per budget; 0 = no refinement).
	Rounds []int `json:"rounds,omitempty"`
}

// merge overlays the non-zero fields of over onto p.
func (p Params) merge(over Params) Params {
	if len(over.Models) > 0 {
		p.Models = over.Models
	}
	if len(over.Shots) > 0 {
		p.Shots = over.Shots
	}
	if len(over.Ks) > 0 {
		p.Ks = over.Ks
	}
	if over.Count > 0 {
		p.Count = over.Count
	}
	if len(over.Kinds) > 0 {
		p.Kinds = over.Kinds
	}
	if len(over.Rounds) > 0 {
		p.Rounds = over.Rounds
	}
	return p
}

// GridGroup is one sub-setting's raw outcome lattice ("0-shot",
// "pipeline", ...; single-setting tasks use one unnamed group). It is
// the unit a shard ships home: grids carry slot provenance, so
// engine.MergeGrids can reassemble the full instance axis and the
// shared report-building path folds it exactly as a local run would.
type GridGroup struct {
	Name string       `json:"name,omitempty"`
	Grid *engine.Grid `json:"grid"`
}

// runFunc evaluates one task's grids: it receives the engine, the
// resolved parameters, and an observer factory keyed by group name
// (multi-part tasks run one grid per group), and returns the raw
// outcome lattice per group. nil for grid-less tasks (static datasets
// and pre-rendered figures), which only have a text renderer.
type runFunc func(ctx context.Context, eng *engine.Engine, p Params, obs func(group string) engine.Observer) ([]GridGroup, error)

// textFunc renders a task's textual artifact from the resolved
// parameters and the aggregated report groups (empty for grid-less
// tasks). It runs after aggregation — on the coordinator for merged
// runs — so sharded text output is identical to a local run's.
type textFunc func(p Params, groups []Group) (string, error)

// Spec describes one registered task.
type Spec struct {
	// Name is the registry key, e.g. "nl2sva-human-passk".
	Name string `json:"name"`
	// Title is a one-line human description.
	Title string `json:"title"`
	// Table and Figure tie the task to the paper artifact it
	// reproduces (0 = none).
	Table  int  `json:"table,omitempty"`
	Figure int  `json:"figure,omitempty"`
	Kind   Kind `json:"kind"`
	// Accepts lists the Params fields a Request may override
	// ("models", "shots", "ks", "count", "kinds", "rounds").
	Accepts []string `json:"accepts,omitempty"`
	// Defaults are the paper's parameters for this task.
	Defaults Params `json:"defaults"`

	run  runFunc
	text textFunc
}

// Shardable reports whether the task evaluates a model grid, i.e.
// whether splitting its instance axis across workers does any good.
// Grid-less tasks (static tables, pre-rendered figures) run whole on
// a single worker.
func (s Spec) Shardable() bool { return s.run != nil }

func (s *Spec) accepts(field string) bool {
	for _, f := range s.Accepts {
		if f == field {
			return true
		}
	}
	return false
}

// designKinds are the valid Design2SVA categories.
var designKinds = map[string]bool{"pipeline": true, "fsm": true}

// maxMachineCount bounds the synthetic dataset a single request may
// ask for; the paper uses 300.
const maxMachineCount = 10000

// maxRefineRounds bounds a refinement retry budget; past a handful of
// rounds the feedback loop has long converged and each extra round
// only multiplies evaluation cost.
const maxRefineRounds = 8

// resolve merges an override onto the spec defaults and validates the
// result against the spec: overriding a parameter the task does not
// take is an error (not silently ignored), as is any out-of-range or
// unresolvable value. n is the samples a pass@k run draws per
// instance (engine.Config.PassKSamples): pass@k is defined only for
// k <= n, so an explicit cut-off above n is refused and a default one
// is dropped, leaving the echo to say what was computed.
func (s *Spec) resolve(over Params, n int) (Params, error) {
	for field, set := range map[string]bool{
		"models": len(over.Models) > 0,
		"shots":  len(over.Shots) > 0,
		"ks":     len(over.Ks) > 0,
		"count":  over.Count != 0,
		"kinds":  len(over.Kinds) > 0,
		"rounds": len(over.Rounds) > 0,
	} {
		if set && !s.accepts(field) {
			return Params{}, fmt.Errorf("parameter %q not accepted (accepts: %s)",
				field, strings.Join(s.Accepts, ", "))
		}
	}
	if over.Count < 0 {
		return Params{}, fmt.Errorf("negative count %d", over.Count)
	}
	p := s.Defaults.merge(over)
	for _, m := range p.Models {
		if llm.ModelByName(m) == nil {
			return Params{}, fmt.Errorf("unknown model %q (see fveval.Models)", m)
		}
	}
	ks := p.Ks[:0:0]
	for _, k := range p.Ks {
		switch {
		case k < 1:
			return Params{}, fmt.Errorf("pass@k cut-off %d out of range", k)
		case k <= n:
			ks = append(ks, k)
		case len(over.Ks) > 0:
			return Params{}, fmt.Errorf("pass@k cut-off k=%d exceeds the n=%d samples drawn per instance", k, n)
		}
	}
	p.Ks = ks
	for _, sh := range p.Shots {
		if sh < 0 {
			return Params{}, fmt.Errorf("negative shot count %d", sh)
		}
	}
	if s.accepts("count") && (p.Count < 1 || p.Count > maxMachineCount) {
		return Params{}, fmt.Errorf("count %d out of range 1..%d", p.Count, maxMachineCount)
	}
	for _, k := range p.Kinds {
		if !designKinds[k] {
			return Params{}, fmt.Errorf("unknown design kind %q (want pipeline or fsm)", k)
		}
	}
	for _, r := range p.Rounds {
		if r < 0 || r > maxRefineRounds {
			return Params{}, fmt.Errorf("refinement rounds %d out of range 0..%d", r, maxRefineRounds)
		}
	}
	return p, nil
}

// resolveModels maps validated model names onto the proxy fleet.
func resolveModels(names []string) []llm.Model {
	out := make([]llm.Model, 0, len(names))
	for _, n := range names {
		if m := llm.ModelByName(n); m != nil {
			out = append(out, m)
		}
	}
	return out
}

func modelNames(models []llm.Model) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.Name()
	}
	return out
}

// passKFleet is the three-model subset the paper samples for the
// pass@k tables.
func passKFleet() []string {
	return []string{"gpt-4o", "gemini-1.5-flash", "llama-3.1-70b"}
}

// registry holds every task in display order plus a name index.
var (
	registry = buildRegistry()
	byName   = indexRegistry(registry)
)

func indexRegistry(specs []*Spec) map[string]*Spec {
	m := make(map[string]*Spec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}

// Tasks returns the registry in display order. The returned specs are
// deep copies; mutating them (including their slices) does not affect
// the registry.
func Tasks() []Spec {
	out := make([]Spec, len(registry))
	for i, s := range registry {
		c := *s
		c.Accepts = append([]string(nil), s.Accepts...)
		c.Defaults = s.Defaults.clone()
		out[i] = c
	}
	return out
}

// clone deep-copies the parameter slices.
func (p Params) clone() Params {
	p.Models = append([]string(nil), p.Models...)
	p.Shots = append([]int(nil), p.Shots...)
	p.Ks = append([]int(nil), p.Ks...)
	p.Kinds = append([]string(nil), p.Kinds...)
	p.Rounds = append([]int(nil), p.Rounds...)
	return p
}

// Lookup finds a task by registry name.
func Lookup(name string) (*Spec, error) {
	if s, ok := byName[name]; ok {
		return s, nil
	}
	known := make([]string, 0, len(byName))
	for n := range byName {
		known = append(known, n)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("task: unknown task %q (known: %s)", name, strings.Join(known, ", "))
}

// ByTable finds the task reproducing a paper table.
func ByTable(n int) (*Spec, error) {
	for _, s := range registry {
		if s.Table == n {
			return s, nil
		}
	}
	return nil, fmt.Errorf("task: no task reproduces table %d", n)
}

// ByFigure finds the task reproducing a paper figure.
func ByFigure(n int) (*Spec, error) {
	for _, s := range registry {
		if s.Figure == n {
			return s, nil
		}
	}
	return nil, fmt.Errorf("task: no task reproduces figure %d", n)
}

// singleGrid wraps one unnamed grid as the task's only group.
func singleGrid(g *engine.Grid, err error) ([]GridGroup, error) {
	if err != nil {
		return nil, err
	}
	return []GridGroup{{Grid: g}}, nil
}

func buildRegistry() []*Spec {
	return []*Spec{
		{
			Name:     "nl2sva-human",
			Title:    "NL2SVA-Human, greedy decoding (Table 1)",
			Table:    1,
			Kind:     KindGreedy,
			Accepts:  []string{"models"},
			Defaults: Params{Models: modelNames(llm.Models())},
			run: func(ctx context.Context, eng *engine.Engine, p Params, obs func(string) engine.Observer) ([]GridGroup, error) {
				return singleGrid(eng.HumanGrid(ctx, resolveModels(p.Models), false, obs("")))
			},
		},
		{
			Name:     "nl2sva-human-passk",
			Title:    "NL2SVA-Human, pass@k over sampled decoding (Table 2)",
			Table:    2,
			Kind:     KindPassK,
			Accepts:  []string{"models", "ks"},
			Defaults: Params{Models: passKFleet(), Ks: []int{1, 3, 5}},
			run: func(ctx context.Context, eng *engine.Engine, p Params, obs func(string) engine.Observer) ([]GridGroup, error) {
				return singleGrid(eng.HumanGrid(ctx, resolveModels(p.Models), true, obs("")))
			},
		},
		{
			Name:     "nl2sva-machine",
			Title:    "NL2SVA-Machine, greedy decoding per shot count (Table 3)",
			Table:    3,
			Kind:     KindShots,
			Accepts:  []string{"models", "shots", "count"},
			Defaults: Params{Models: modelNames(llm.Models()), Shots: []int{0, 3}, Count: 300},
			run: func(ctx context.Context, eng *engine.Engine, p Params, obs func(string) engine.Observer) ([]GridGroup, error) {
				var groups []GridGroup
				for _, sh := range p.Shots {
					name := fmt.Sprintf("%d-shot", sh)
					g, err := eng.MachineGrid(ctx, resolveModels(p.Models), sh, p.Count, false, 0, obs(name))
					if err != nil {
						return nil, err
					}
					groups = append(groups, GridGroup{Name: name, Grid: g})
				}
				return groups, nil
			},
		},
		{
			Name:     "nl2sva-machine-passk",
			Title:    "NL2SVA-Machine, pass@k at 3-shot (Table 4)",
			Table:    4,
			Kind:     KindPassK,
			Accepts:  []string{"models", "ks", "count"},
			Defaults: Params{Models: passKFleet(), Ks: []int{1, 3, 5}, Count: 300},
			run: func(ctx context.Context, eng *engine.Engine, p Params, obs func(string) engine.Observer) ([]GridGroup, error) {
				return singleGrid(eng.MachineGrid(ctx, resolveModels(p.Models), 3, p.Count, true, 0, obs("")))
			},
		},
		{
			Name:     "design2sva",
			Title:    "Design2SVA, assertion generation over synthetic RTL (Table 5)",
			Table:    5,
			Kind:     KindDesign,
			Accepts:  []string{"models", "ks", "kinds"},
			Defaults: Params{Models: modelNames(llm.DesignModels()), Ks: []int{1, 5}, Kinds: []string{"pipeline", "fsm"}},
			run: func(ctx context.Context, eng *engine.Engine, p Params, obs func(string) engine.Observer) ([]GridGroup, error) {
				var groups []GridGroup
				for _, kind := range p.Kinds {
					g, err := eng.DesignGrid(ctx, resolveModels(p.Models), kind, obs(kind))
					if err != nil {
						return nil, err
					}
					groups = append(groups, GridGroup{Name: kind, Grid: g})
				}
				return groups, nil
			},
		},
		{
			Name:     "agr",
			Title:    "AGR, assertion-guided helper generation, pass@k (Table AGR)",
			Kind:     KindPassK,
			Accepts:  []string{"models", "ks"},
			Defaults: Params{Models: passKFleet(), Ks: []int{1, 3, 5}},
			run: func(ctx context.Context, eng *engine.Engine, p Params, obs func(string) engine.Observer) ([]GridGroup, error) {
				return singleGrid(eng.HelperGrid(ctx, resolveModels(p.Models), obs("")))
			},
			text: renderTableAGR,
		},
		{
			Name:     "refinement",
			Title:    "NL2SVA-Machine with CEX-guided refinement, pass@k per retry budget (Figure R)",
			Kind:     KindPassK,
			Accepts:  []string{"models", "ks", "count", "rounds"},
			Defaults: Params{Models: passKFleet(), Ks: []int{1, 5}, Count: 60, Rounds: []int{0, 1, 2}},
			run: func(ctx context.Context, eng *engine.Engine, p Params, obs func(string) engine.Observer) ([]GridGroup, error) {
				var groups []GridGroup
				for _, r := range p.Rounds {
					name := fmt.Sprintf("round=%d", r)
					g, err := eng.MachineGrid(ctx, resolveModels(p.Models), 3, p.Count, true, r, obs(name))
					if err != nil {
						return nil, err
					}
					groups = append(groups, GridGroup{Name: name, Grid: g})
				}
				return groups, nil
			},
			text: renderFigureR,
		},
		{
			Name:  "dataset-stats",
			Title: "NL2SVA-Human dataset composition (Table 6)",
			Table: 6,
			Kind:  KindStatic,
			text:  renderTable6,
		},
		{
			Name:   "human-token-lengths",
			Title:  "NL2SVA-Human token-length distributions (Figure 2)",
			Figure: 2,
			Kind:   KindFigure,
			text:   renderFigure2,
		},
		{
			Name:     "machine-token-lengths",
			Title:    "NL2SVA-Machine token-length distributions (Figure 3)",
			Figure:   3,
			Kind:     KindFigure,
			Accepts:  []string{"count"},
			Defaults: Params{Count: 300},
			text:     renderFigure3,
		},
		{
			Name:   "design-token-lengths",
			Title:  "Synthetic RTL token-length distributions (Figure 4)",
			Figure: 4,
			Kind:   KindFigure,
			text:   renderFigure4,
		},
		{
			Name:     "bleu-correlation",
			Title:    "BLEU vs formal functional equivalence on NL2SVA-Human (Figure 6)",
			Figure:   6,
			Kind:     KindFigure,
			Accepts:  []string{"models"},
			Defaults: Params{Models: []string{"gpt-4o", "llama-3.1-70b"}},
			run: func(ctx context.Context, eng *engine.Engine, p Params, obs func(string) engine.Observer) ([]GridGroup, error) {
				return singleGrid(eng.HumanGrid(ctx, resolveModels(p.Models), false, obs("")))
			},
			text: func(p Params, groups []Group) (string, error) {
				return renderFigure6(firstRows(groups)), nil
			},
		},
	}
}
