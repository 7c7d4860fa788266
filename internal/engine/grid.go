package engine

import (
	"fmt"
	"sort"

	"fveval/internal/core"
)

// Grid is the raw outcome lattice of one evaluation: every judged
// (model, instance, sample) cell in deterministic slot order, plus the
// provenance needed to place a shard's slice back onto the full
// instance axis — the shard spec and the pre-shard instance count.
// Grids are the unit of distributed evaluation: a worker ships its
// shard's grid, MergeGrids reassembles the full lattice, and Rows
// folds slots in exactly the order a single-process run would, so
// merged reports are byte-identical to unsharded ones.
//
// Grids round-trip through JSON losslessly (encoding/json preserves
// float64 values exactly), which makes them safe to ship over the
// fvevald wire and re-aggregate on the coordinator.
type Grid struct {
	// Models is the model-name axis, in evaluation order.
	Models []string `json:"models"`
	// Total is the instance count after Limit but before sharding;
	// Local is this shard's instance count. For an unsharded grid the
	// two are equal.
	Total int `json:"total"`
	Local int `json:"local"`
	// Samples is n, the samples drawn per instance (1 for greedy).
	Samples int `json:"samples"`
	// Shard records which slice of the instance axis this grid holds.
	Shard Shard `json:"shard,omitzero"`
	// Outcomes[m][j*Samples+s] is model m, shard-local instance j,
	// sample s. The global instance index of local j is
	// Shard.Index + j*Shard.Count (identity when sharding is off).
	Outcomes [][]core.Outcome `json:"outcomes"`
}

// Rows folds the grid into one row per model, visiting slots in grid
// order (the fold Aggregate documents as deterministic): pass@k at the
// cut-offs ks, or greedy means when ks is empty.
func (g *Grid) Rows(ks []int) []core.Row {
	rows := make([]core.Row, 0, len(g.Models))
	for m, name := range g.Models {
		if len(ks) == 0 {
			rows = append(rows, core.Aggregate(name, g.Outcomes[m]))
		} else {
			rows = append(rows, core.AggregatePassK(name, g.Local, g.Samples, ks, g.Outcomes[m]))
		}
	}
	return rows
}

// shardLen is the number of global instances a shard holds: the count
// of positions p in [0, total) with p mod Count == Index.
func shardLen(total int, s Shard) int {
	if !s.Enabled() {
		return total
	}
	if total <= s.Index {
		return 0
	}
	return (total-s.Index-1)/s.Count + 1
}

// MergeGrids reassembles a complete instance axis from shard grids.
// The parts may arrive in any order (the merge sorts by shard index,
// so it is commutative); they must form an exact partition — every
// shard of one Count present exactly once — and agree on the model
// axis, the pre-shard instance count, and the sample count. Each
// shard-local slot lands at its global position, so folding the merged
// grid is byte-identical to folding a single-process run.
//
// A single unsharded grid merges to itself, letting callers treat
// one-worker plans uniformly.
func MergeGrids(parts []*Grid) (*Grid, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: merge of zero grids")
	}
	sorted := append([]*Grid(nil), parts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Shard.Index < sorted[j].Shard.Index
	})
	first := sorted[0]
	if !first.Shard.Enabled() {
		if len(sorted) != 1 {
			return nil, fmt.Errorf("engine: unsharded grid in a %d-part merge", len(sorted))
		}
		return first, nil
	}
	n := first.Shard.Count
	if len(sorted) != n {
		return nil, fmt.Errorf("engine: merge got %d shards, want %d", len(sorted), n)
	}
	merged := &Grid{
		Models: first.Models, Total: first.Total, Local: first.Total,
		Samples:  first.Samples,
		Outcomes: make([][]core.Outcome, len(first.Models)),
	}
	for m := range merged.Outcomes {
		merged.Outcomes[m] = make([]core.Outcome, first.Total*first.Samples)
	}
	for i, g := range sorted {
		if g.Shard.Count != n || g.Shard.Index != i {
			return nil, fmt.Errorf("engine: broken shard partition: got %s at position %d of %d", g.Shard, i, n)
		}
		if g.Total != first.Total || g.Samples != first.Samples {
			return nil, fmt.Errorf("engine: shard %s disagrees on grid shape (%d×%d vs %d×%d instances×samples)",
				g.Shard, g.Total, g.Samples, first.Total, first.Samples)
		}
		if len(g.Models) != len(first.Models) {
			return nil, fmt.Errorf("engine: shard %s disagrees on the model axis", g.Shard)
		}
		for m := range g.Models {
			if g.Models[m] != first.Models[m] {
				return nil, fmt.Errorf("engine: shard %s disagrees on the model axis", g.Shard)
			}
		}
		if want := shardLen(g.Total, g.Shard); g.Local != want {
			return nil, fmt.Errorf("engine: shard %s holds %d instances, want %d of %d", g.Shard, g.Local, want, g.Total)
		}
		for m := range g.Outcomes {
			if len(g.Outcomes[m]) != g.Local*g.Samples {
				return nil, fmt.Errorf("engine: shard %s model %s has %d slots, want %d",
					g.Shard, g.Models[m], len(g.Outcomes[m]), g.Local*g.Samples)
			}
			for j := 0; j < g.Local; j++ {
				global := g.Shard.Index + j*n
				copy(merged.Outcomes[m][global*g.Samples:(global+1)*g.Samples],
					g.Outcomes[m][j*g.Samples:(j+1)*g.Samples])
			}
		}
	}
	return merged, nil
}
