// The pattern bank: counterexample-guided refinement storage for the
// bit-parallel simulation prefilter (DESIGN.md §10). Every SAT model
// found anywhere in a run — an equivalence witness, a BMC
// counterexample, a refuted induction step — is folded back into one
// shared bank as a concrete signal-level trace, and later queries
// replay the banked traces (alongside fresh random patterns) before
// opening a solver: assertion pairs in one benchmark run are highly
// correlated, so the pattern separating one pair very often separates
// the next.

package formal

import (
	"math/bits"
	"sync"
)

// Pattern is one concrete trace at the signal level: per-signal values
// indexed by trace position. Signal-level storage is what makes
// patterns portable across queries — each query maps its own input
// bits onto the named values and treats missing signals or positions
// as zero. Patterns stored in a Bank are read-only; callers must not
// mutate a Pattern after Add or after receiving it from Patterns.
type Pattern struct {
	// Len is the number of positions the trace covers.
	Len int
	// Vals maps a signal name to its value at each position.
	Vals map[string][]uint64
}

// Bank is a concurrency-safe, bounded ring of learned patterns shared
// across an engine's whole run (it lives in the engine's shareable
// memo pool next to the equivalence cache and survives Reconfigure).
// When full, new patterns overwrite the oldest. A nil *Bank is valid
// and drops every Add.
type Bank struct {
	mu   sync.Mutex
	pats []Pattern
	next int // ring write cursor once len(pats) == cap
	cap  int
}

// DefaultBankCap bounds the bank when NewBank is given no capacity.
const DefaultBankCap = 128

// NewBank returns an empty bank holding at most cap patterns
// (DefaultBankCap when cap <= 0).
func NewBank(cap int) *Bank {
	if cap <= 0 {
		cap = DefaultBankCap
	}
	return &Bank{cap: cap}
}

// Add stores a pattern, evicting the oldest when the bank is full.
func (b *Bank) Add(p Pattern) {
	if b == nil || p.Len == 0 || len(p.Vals) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pats) < b.cap {
		b.pats = append(b.pats, p)
		return
	}
	b.pats[b.next] = p
	b.next = (b.next + 1) % b.cap
}

// Patterns returns up to max patterns, most recently added first. The
// returned slice is a fresh copy but the Pattern contents are shared —
// read-only by contract. A nil *Bank returns nil.
func (b *Bank) Patterns(max int) []Pattern {
	if b == nil || max <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.pats)
	if n == 0 {
		return nil
	}
	if max > n {
		max = n
	}
	out := make([]Pattern, 0, max)
	// Newest-first: walk backwards from the write cursor.
	start := b.next - 1
	if len(b.pats) < b.cap {
		start = len(b.pats) - 1
	}
	for i := 0; i < max; i++ {
		idx := (start - i + n) % n
		out = append(out, b.pats[idx])
	}
	return out
}

// Len reports the number of patterns currently held.
func (b *Bank) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pats)
}

// signalRows sets rows[j] to the first n patterns' values of signal
// name (nil where a pattern lacks it): one map lookup per pattern
// serves every position of the signal.
func signalRows(pats []Pattern, n int, name string, rows [][]uint64) [][]uint64 {
	rows = rows[:0]
	for _, p := range pats[:n] {
		rows = append(rows, p.Vals[name])
	}
	return rows
}

// laneWords packs the patterns' values at pos (rows from signalRows)
// into dst: dst[i] receives bit i of row j's value in lane j. Only the
// set bits are visited. Positions a row does not cover stay zero.
func laneWords(rows [][]uint64, pos int, dst []uint64) {
	clear(dst)
	for j, vals := range rows {
		if pos >= len(vals) {
			continue
		}
		lane := uint64(1) << uint(j)
		for v := vals[pos]; v != 0; v &= v - 1 {
			i := bits.TrailingZeros64(v)
			if i >= len(dst) {
				break
			}
			dst[i] |= lane
		}
	}
}

// splitMix64 steps a deterministic 64-bit generator — the random
// pattern source of the simulation prefilter. Determinism matters only
// for reproducible stats and witness traces; verdicts are
// pattern-independent because the prefilter is refute-only with a SAT
// fallback.
func splitMix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
