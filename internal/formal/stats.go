// Package formal is the bounded-search core shared by the equivalence
// checker and the model checker (DESIGN.md §7, §10). A Session owns
// one incrementally grown circuit: the builder, its CNF encoding, the
// SAT solver, the prefilter's simulator and its random stream. Each
// check claims it through an Obligation: path constraints gated behind
// an activation literal, Find (the one way a check asks a question:
// simulate banked and random patterns, solve on a miss, decode the
// trace into a signal-level Pattern that also feeds the Bank, and name
// the target it satisfies), and Close (retire the literal, report the
// check's counters). equiv runs both implication directions as two
// obligations on one stateless trace session; mc runs BMC, induction,
// liveness and cover as obligations on a design's session pair. Every
// check reports into one Stats sink, which the engine surfaces next to
// its cache statistics.
package formal

import (
	"fmt"
	"sync/atomic"
)

// Stats accumulates incremental-backend counters. All fields are
// atomic so one Stats value can be shared across the engine's worker
// pool; a nil *Stats is valid and drops every report.
type Stats struct {
	queries     atomic.Int64 // checks closed (one per obligation)
	solves      atomic.Int64 // individual Solve calls issued
	earlyStops  atomic.Int64 // checks decided below their final bound
	conflicts   atomic.Int64 // SAT conflicts spent across all checks
	learntKept  atomic.Int64 // learnt clauses alive entering a reused call
	gatesShared atomic.Int64 // circuit nodes reused instead of re-encoded
	encoded     atomic.Int64 // circuit nodes Tseitin-encoded into solvers

	// Bit-parallel simulation prefilter counters (DESIGN.md §10).
	simPatterns    atomic.Int64 // pattern lanes simulated
	simRefutations atomic.Int64 // queries refuted by simulation alone
	simBankHits    atomic.Int64 // refutations from a recycled counterexample

	// Assumed-lemma pipeline counters (DESIGN.md §12): candidate
	// helper assertions submitted to mc.Design.CheckWithLemmas, how
	// many were themselves proved (and hence assumed), and how many
	// turned out load-bearing for the target proof.
	lemmaCandidates  atomic.Int64
	lemmaProved      atomic.Int64
	lemmaLoadBearing atomic.Int64

	// Solver wall-clock accounting (DESIGN.md §11): total nanoseconds
	// spent inside formal checks plus a per-check latency histogram,
	// surfaced by the service tier's /metrics endpoint.
	solveNS   atomic.Int64
	solveHist [SolveWallBucketCount]atomic.Int64
}

// SolveWallBuckets are the histogram upper bounds, in seconds, for
// per-check solver wall-clock observations; the implicit final bucket
// is +Inf.
var SolveWallBuckets = [...]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// SolveWallBucketCount is len(SolveWallBuckets) + 1 (the +Inf bucket).
const SolveWallBucketCount = 9

// SolveWall records the wall-clock of one complete formal check (an
// equivalence pair or a model-checking property): total time plus one
// histogram observation.
func (s *Stats) SolveWall(ns int64) {
	if s == nil || ns < 0 {
		return
	}
	s.solveNS.Add(ns)
	sec := float64(ns) / 1e9
	i := 0
	for i < len(SolveWallBuckets) && sec > SolveWallBuckets[i] {
		i++
	}
	s.solveHist[i].Add(1)
}

// query records one closed obligation: the Solve calls it issued, the
// conflicts they spent, how many learnt clauses its calls inherited
// from earlier ones, the circuit nodes its session obtained from the
// structural hash instead of building afresh (shared) and emitted as
// CNF (encoded — the denominator shared saves against), and whether
// the verdict arrived before the final bound.
func (s *Stats) query(solves, conflicts, learntKept, shared, encoded int64, early bool) {
	if s == nil {
		return
	}
	s.queries.Add(1)
	s.solves.Add(solves)
	s.conflicts.Add(conflicts)
	s.learntKept.Add(learntKept)
	s.gatesShared.Add(shared)
	s.encoded.Add(encoded)
	if early {
		s.earlyStops.Add(1)
	}
}

// SimPatterns records pattern lanes evaluated by the bit-parallel
// prefilter.
func (s *Stats) SimPatterns(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.simPatterns.Add(n)
}

// SimRefuted records one prefilter refutation: a query decided by a
// concrete simulation witness instead of a solver call. fromBank marks
// witnesses found among recycled counterexample patterns (vs fresh
// random ones).
func (s *Stats) SimRefuted(fromBank bool) {
	if s == nil {
		return
	}
	s.simRefutations.Add(1)
	if fromBank {
		s.simBankHits.Add(1)
	}
}

// Lemmas records one assumed-lemma pipeline run: the number of
// candidate helpers submitted, how many were proved (only proved
// helpers are ever assumed), and how many were load-bearing for the
// target proof.
func (s *Stats) Lemmas(candidates, proved, loadBearing int64) {
	if s == nil {
		return
	}
	s.lemmaCandidates.Add(candidates)
	s.lemmaProved.Add(proved)
	s.lemmaLoadBearing.Add(loadBearing)
}

// LemmaStats is a point-in-time copy of the assumed-lemma counters.
type LemmaStats struct {
	// Candidates is the number of helper assertions submitted.
	Candidates int64 `json:"candidates"`
	// Proved is how many candidates were proved and assumed.
	Proved int64 `json:"proved"`
	// LoadBearing is how many proved helpers the target proof
	// actually depended on.
	LoadBearing int64 `json:"load_bearing"`
}

func (s LemmaStats) String() string {
	if s.Candidates == 0 {
		return "lemma pipeline: no candidates"
	}
	return fmt.Sprintf(
		"lemma pipeline: %d candidates, %d proved and assumed, %d load-bearing",
		s.Candidates, s.Proved, s.LoadBearing)
}

// SimStats is a point-in-time copy of the simulation-prefilter
// counters.
type SimStats struct {
	// Patterns is the number of pattern lanes simulated.
	Patterns int64 `json:"patterns"`
	// Refutations is the number of queries decided by simulation alone.
	Refutations int64 `json:"refutations"`
	// BankHits is the number of refutations found among recycled
	// counterexample patterns rather than fresh random ones.
	BankHits int64 `json:"bank_hits"`
}

func (s SimStats) String() string {
	if s.Patterns == 0 {
		return "sim prefilter: off"
	}
	return fmt.Sprintf(
		"sim prefilter: %d patterns simulated, %d refutations (%d recycled)",
		s.Patterns, s.Refutations, s.BankHits)
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Queries     int64 `json:"queries"`
	Solves      int64 `json:"solves"`
	EarlyStops  int64 `json:"early_stops"`
	Conflicts   int64 `json:"conflicts"`
	LearntKept  int64 `json:"learnt_kept"`
	GatesShared int64 `json:"gates_shared"`
	Encoded     int64 `json:"encoded"`
	// SolveWallNS is total wall-clock nanoseconds spent inside formal
	// checks; SolveWallHist is the per-check latency histogram (raw
	// per-bucket counts over SolveWallBuckets, last bucket +Inf).
	SolveWallNS   int64                       `json:"solve_wall_ns,omitempty"`
	SolveWallHist [SolveWallBucketCount]int64 `json:"solve_wall_hist,omitzero"`
	// Sim carries the simulation-prefilter counters.
	Sim SimStats `json:"sim"`
	// Lemma carries the assumed-lemma pipeline counters.
	Lemma LemmaStats `json:"lemma,omitzero"`
}

// Snapshot copies the counters; zero for a nil receiver.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	var hist [SolveWallBucketCount]int64
	for i := range hist {
		hist[i] = s.solveHist[i].Load()
	}
	return Snapshot{
		Queries:       s.queries.Load(),
		Solves:        s.solves.Load(),
		EarlyStops:    s.earlyStops.Load(),
		Conflicts:     s.conflicts.Load(),
		LearntKept:    s.learntKept.Load(),
		GatesShared:   s.gatesShared.Load(),
		Encoded:       s.encoded.Load(),
		SolveWallNS:   s.solveNS.Load(),
		SolveWallHist: hist,
		Sim: SimStats{
			Patterns:    s.simPatterns.Load(),
			Refutations: s.simRefutations.Load(),
			BankHits:    s.simBankHits.Load(),
		},
		Lemma: LemmaStats{
			Candidates:  s.lemmaCandidates.Load(),
			Proved:      s.lemmaProved.Load(),
			LoadBearing: s.lemmaLoadBearing.Load(),
		},
	}
}

// Add returns the field-wise sum of two snapshots — the distributed
// merge fold (shard deltas are disjoint traffic on separate pools).
func (s Snapshot) Add(o Snapshot) Snapshot { return s.combine(o, 1) }

// Sub returns the field-wise difference s - o — the per-run delta of
// cumulative counters.
func (s Snapshot) Sub(o Snapshot) Snapshot { return s.combine(o, -1) }

// combine returns s + sign*o, field by field.
func (s Snapshot) combine(o Snapshot, sign int64) Snapshot {
	var hist [SolveWallBucketCount]int64
	for i := range hist {
		hist[i] = s.SolveWallHist[i] + sign*o.SolveWallHist[i]
	}
	return Snapshot{
		Queries:       s.Queries + sign*o.Queries,
		Solves:        s.Solves + sign*o.Solves,
		EarlyStops:    s.EarlyStops + sign*o.EarlyStops,
		Conflicts:     s.Conflicts + sign*o.Conflicts,
		LearntKept:    s.LearntKept + sign*o.LearntKept,
		GatesShared:   s.GatesShared + sign*o.GatesShared,
		Encoded:       s.Encoded + sign*o.Encoded,
		SolveWallNS:   s.SolveWallNS + sign*o.SolveWallNS,
		SolveWallHist: hist,
		Sim: SimStats{
			Patterns:    s.Sim.Patterns + sign*o.Sim.Patterns,
			Refutations: s.Sim.Refutations + sign*o.Sim.Refutations,
			BankHits:    s.Sim.BankHits + sign*o.Sim.BankHits,
		},
		Lemma: LemmaStats{
			Candidates:  s.Lemma.Candidates + sign*o.Lemma.Candidates,
			Proved:      s.Lemma.Proved + sign*o.Lemma.Proved,
			LoadBearing: s.Lemma.LoadBearing + sign*o.Lemma.LoadBearing,
		},
	}
}

func (s Snapshot) String() string {
	if s.Queries == 0 {
		return "formal backend: no incremental queries"
	}
	return fmt.Sprintf(
		"formal backend: %d queries, %d incremental solves (%.2f/query), %d early ramp exits (%.1f%%), %d conflicts, %d learnt clauses carried, %d gates shared / %d encoded",
		s.Queries, s.Solves, float64(s.Solves)/float64(s.Queries),
		s.EarlyStops, 100*float64(s.EarlyStops)/float64(s.Queries),
		s.Conflicts, s.LearntKept, s.GatesShared, s.Encoded)
}
