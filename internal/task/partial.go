package task

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"fveval/internal/engine"
	"fveval/internal/equiv"
	"fveval/internal/obs"
)

// Partial is the wire shape of one shard's contribution to a task: the
// raw outcome grids (with slot provenance) instead of aggregated rows,
// plus the resolved request echo and this shard's execution metadata.
// Partials from a complete shard partition recombine via MergeReports
// into a Report byte-identical to an unsharded Engine.Run — the merge
// invariant the distributed layer (internal/dist) is built on.
//
// Partials round-trip through JSON (Encode/DecodePartial): they are
// the fvevald partial-run response body a coordinator reads back from
// each worker.
type Partial struct {
	// Task is the registry name; Params echo the fully resolved
	// parameters (identical across every shard of one run).
	Task   string `json:"task"`
	Params Params `json:"params"`
	// Options echo the engine configuration the shard ran under,
	// including its Shard slice.
	Options engine.Config `json:"options,omitzero"`
	// Groups carry the raw outcome lattice per sub-setting; empty for
	// grid-less tasks (their text renders at merge time).
	Groups []GridGroup `json:"groups,omitempty"`
	// Stats is this shard's execution metadata.
	Stats Stats `json:"stats"`
	// Trace carries this shard's completed spans when the request asked
	// for tracing (Request.Trace non-nil); the coordinator adopts them
	// under its shard span so distributed runs stitch into one tree.
	// Absent (and absent from JSON) for untraced runs.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// Encode is the canonical wire encoding (indented JSON), matching the
// Report conventions.
func (p *Partial) Encode() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// DecodePartial parses a Partial previously produced by Encode (or
// any JSON encoding of the type).
func DecodePartial(data []byte) (*Partial, error) {
	var p Partial
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("task: decode partial: %w", err)
	}
	return &p, nil
}

// RunPartial executes one registry task like Run but skips the
// aggregation fold: it returns the shard's raw grids so a coordinator
// can recombine them with other shards. The request's Options.Shard
// selects the slice; an unsharded request yields a partial covering
// the whole instance axis (which merges to itself).
func (e *Engine) RunPartial(ctx context.Context, req Request) (*Partial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, p, eng, err := e.prepare(req)
	if err != nil {
		return nil, err
	}
	// A traced shard records into its own fresh recorder — never the
	// context's (a loopback coordinator's recorder may be there) — so
	// local and remote runners produce identical Partial wire bytes and
	// the coordinator stitches both the same way, by adoption.
	var rec *obs.Recorder
	var root *obs.Span
	if req.Trace != nil {
		rec = obs.NewRecorder(req.Trace.Cap)
		// The shard root records parent 0 (a recorder-local root); the
		// coordinator re-roots it under its shard span when it adopts
		// the partial's spans. Embedding req.Trace.Parent — an ID from
		// the coordinator's space — would collide with this recorder's
		// own IDs and corrupt the remap.
		root = rec.Start("shard-run", 0)
		root.SetStr("task", req.Task)
		ctx = obs.ContextWithSpan(obs.NewContext(ctx, rec), root)
	}
	groups, stats, err := e.execute(ctx, spec, p, eng, req.Progress)
	if err != nil {
		return nil, err
	}
	part := &Partial{
		Task: spec.Name, Params: p, Options: eng.Config(),
		Groups: groups, Stats: stats,
	}
	if rec != nil {
		root.End()
		spans, dropped := rec.Snapshot()
		part.Trace = &obs.TraceData{Spans: spans, Dropped: dropped}
	}
	return part, nil
}

// paramsKey is the canonical comparison form of resolved parameters.
func paramsKey(p Params) ([]byte, error) {
	return json.Marshal(p)
}

// comparableOptions strips the execution-only knobs that legitimately
// differ across shards: the shard slice itself and Workers (resolved
// per machine from GOMAXPROCS). Everything else — Limit, Samples,
// Budget, MaxBound, NoCache — shapes verdicts or grid geometry and
// must agree for a merge to be meaningful.
func comparableOptions(c engine.Config) engine.Config {
	c.Shard = engine.Shard{}
	c.Workers = 0
	return c
}

// MergeReports deterministically recombines a complete shard partition
// into the unified Report. The merge is commutative — partials may
// arrive in any order — and slot-ordered: each shard's outcomes land
// at their global grid positions and the merged lattice folds through
// the same aggregation path a local run uses, so Render() and Encode()
// output is byte-identical to an unsharded Engine.Run with the same
// parameters. Grid-less tasks merge from a single partial, with their
// text rendered here.
func MergeReports(partials []*Partial) (*Report, error) {
	spec, p, groups, err := mergeGroups(partials)
	if err != nil {
		return nil, err
	}
	return buildReport(spec, p, groups)
}

// mergeGroups validates the partition and reassembles the grid groups.
func mergeGroups(partials []*Partial) (*Spec, Params, []GridGroup, error) {
	if len(partials) == 0 {
		return nil, Params{}, nil, fmt.Errorf("task: merge of zero partials")
	}
	first := partials[0]
	spec, err := Lookup(first.Task)
	if err != nil {
		return nil, Params{}, nil, err
	}
	key, err := paramsKey(first.Params)
	if err != nil {
		return nil, Params{}, nil, err
	}
	opts := comparableOptions(first.Options)
	for _, q := range partials[1:] {
		if q.Task != first.Task {
			return nil, Params{}, nil, fmt.Errorf("task: merging %s with %s", first.Task, q.Task)
		}
		qk, err := paramsKey(q.Params)
		if err != nil {
			return nil, Params{}, nil, err
		}
		if !bytes.Equal(key, qk) {
			return nil, Params{}, nil, fmt.Errorf("task %s: shards disagree on resolved params", first.Task)
		}
		if comparableOptions(q.Options) != opts {
			return nil, Params{}, nil, fmt.Errorf("task %s: shards disagree on engine options", first.Task)
		}
		if len(q.Groups) != len(first.Groups) {
			return nil, Params{}, nil, fmt.Errorf("task %s: shards disagree on group structure", first.Task)
		}
		for i := range q.Groups {
			if q.Groups[i].Name != first.Groups[i].Name {
				return nil, Params{}, nil, fmt.Errorf("task %s: shards disagree on group %d (%q vs %q)",
					first.Task, i, q.Groups[i].Name, first.Groups[i].Name)
			}
		}
	}
	merged := make([]GridGroup, 0, len(first.Groups))
	for gi := range first.Groups {
		grids := make([]*engine.Grid, 0, len(partials))
		for _, q := range partials {
			if q.Groups[gi].Grid == nil {
				return nil, Params{}, nil, fmt.Errorf("task %s: group %q missing its grid", first.Task, first.Groups[gi].Name)
			}
			grids = append(grids, q.Groups[gi].Grid)
		}
		g, err := engine.MergeGrids(grids)
		if err != nil {
			return nil, Params{}, nil, fmt.Errorf("task %s group %q: %w", first.Task, first.Groups[gi].Name, err)
		}
		merged = append(merged, GridGroup{Name: first.Groups[gi].Name, Grid: g})
	}
	return spec, first.Params, merged, nil
}

// MergeStats folds shard execution metadata: jobs and the cache/formal
// deltas sum across shards (each shard's delta is disjoint traffic on
// its own memo pool), while wall-clock takes the slowest shard — the
// distributed run's critical path.
func MergeStats(partials []*Partial) Stats {
	var s Stats
	for _, p := range partials {
		s.Jobs += p.Stats.Jobs
		if p.Stats.WallMS > s.WallMS {
			s.WallMS = p.Stats.WallMS
		}
		s.Cache = equiv.CacheStats{
			Hits:   s.Cache.Hits + p.Stats.Cache.Hits,
			Misses: s.Cache.Misses + p.Stats.Cache.Misses,
		}
		s.Formal = s.Formal.Add(p.Stats.Formal)
		s.RefineRounds += p.Stats.RefineRounds
		s.Profile = s.Profile.Add(p.Stats.Profile)
	}
	return s
}

// MergeRuns is MergeReports plus the folded execution metadata and a
// request echo (the shared options with the shard slice cleared),
// shaped like a local Engine.Run result.
func MergeRuns(partials []*Partial) (*Run, error) {
	spec, p, groups, err := mergeGroups(partials)
	if err != nil {
		return nil, err
	}
	report, err := buildReport(spec, p, groups)
	if err != nil {
		return nil, err
	}
	return &Run{
		Request: Request{Task: spec.Name, Params: p, Options: comparableOptions(partials[0].Options)},
		Report:  report,
		Stats:   MergeStats(partials),
	}, nil
}
