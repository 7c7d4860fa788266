package formal

import (
	"sync"
	"testing"
)

func pat(len int, name string, vals ...uint64) Pattern {
	return Pattern{Len: len, Vals: map[string][]uint64{name: vals}}
}

func TestBankRingAndOrder(t *testing.T) {
	b := NewBank(3)
	if b.Len() != 0 || b.Patterns(4) != nil {
		t.Fatal("fresh bank not empty")
	}
	for i := uint64(1); i <= 5; i++ {
		b.Add(pat(1, "s", i))
	}
	if b.Len() != 3 {
		t.Fatalf("len=%d", b.Len())
	}
	got := b.Patterns(8)
	if len(got) != 3 {
		t.Fatalf("patterns returned %d", len(got))
	}
	// Most recent first: 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if got[i].Vals["s"][0] != want {
			t.Fatalf("pattern %d = %d, want %d", i, got[i].Vals["s"][0], want)
		}
	}
	if n := len(b.Patterns(2)); n != 2 {
		t.Fatalf("capped request returned %d", n)
	}
}

func TestBankNilAndEmptyAdds(t *testing.T) {
	var nilBank *Bank
	nilBank.Add(pat(1, "s", 1)) // must not panic
	if nilBank.Len() != 0 || nilBank.Patterns(4) != nil {
		t.Fatal("nil bank should be inert")
	}
	b := NewBank(0)
	b.Add(Pattern{})                                    // empty pattern dropped
	b.Add(Pattern{Len: 3})                              // no signals dropped
	b.Add(Pattern{Vals: map[string][]uint64{"s": {1}}}) // zero length dropped
	if b.Len() != 0 {
		t.Fatalf("degenerate patterns were stored: %d", b.Len())
	}
}

func TestBankConcurrent(t *testing.T) {
	b := NewBank(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Add(pat(2, "s", uint64(w), uint64(i)))
				b.Patterns(8)
			}
		}(w)
	}
	wg.Wait()
	if b.Len() != 16 {
		t.Fatalf("len=%d", b.Len())
	}
	// The survivors are 16 distinct writes.
	seen := map[[2]uint64]bool{}
	for _, p := range b.Patterns(16) {
		seen[[2]uint64{p.Vals["s"][0], p.Vals["s"][1]}] = true
	}
	if len(seen) != 16 {
		t.Fatalf("%d distinct survivors, want 16", len(seen))
	}
}

func TestLaneWords(t *testing.T) {
	pats := []Pattern{
		pat(2, "s", 0b01, 0b11), // lane 0
		pat(1, "s", 0b10),       // lane 1 (no position 1)
		pat(2, "t", 5, 6),       // lane 2 (no signal s)
		pat(1, "s", 1<<63|0b11), // lane 3: beyond the 3 patterns loaded
	}
	rows := signalRows(pats, 3, "s", nil)
	if len(rows) != 3 || rows[2] != nil {
		t.Fatalf("rows=%v, want three with the last nil", rows)
	}
	dst := make([]uint64, 2)
	laneWords(rows, 0, dst)
	if dst[0] != 0b001 || dst[1] != 0b010 {
		t.Fatalf("pos 0: dst=%b,%b", dst[0], dst[1])
	}
	laneWords(rows, 1, dst)
	if dst[0] != 0b001 || dst[1] != 0b001 {
		t.Fatalf("pos 1: dst=%b,%b", dst[0], dst[1])
	}
	laneWords(signalRows(pats, 3, "missing", rows), 0, dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("missing signal should zero the words")
	}
	// Bits past the column's width are dropped; a 64-bit column reads
	// bit 63.
	rows = signalRows(pats, 4, "s", rows)
	laneWords(rows, 0, dst)
	if dst[0] != 0b1001 || dst[1] != 0b1010 {
		t.Fatalf("narrow column: dst=%b,%b", dst[0], dst[1])
	}
	wide := make([]uint64, 70)
	laneWords(rows, 0, wide)
	if wide[63] != 0b1000 || wide[64] != 0 {
		t.Fatalf("wide column: bit 63 lanes %b, bit 64 lanes %b", wide[63], wide[64])
	}
}

func TestSimStatsCounters(t *testing.T) {
	var s Stats
	s.SimPatterns(64)
	s.SimPatterns(0) // dropped
	s.SimRefuted(true)
	s.SimRefuted(false)
	snap := s.Snapshot().Sim
	want := SimStats{Patterns: 64, Refutations: 2, BankHits: 1}
	if snap != want {
		t.Fatalf("sim stats = %+v, want %+v", snap, want)
	}
	sum := s.Snapshot().Add(s.Snapshot())
	if sum.Sim.Patterns != 128 || sum.Sim.Refutations != 4 || sum.Sim.BankHits != 2 {
		t.Fatalf("Add broken: %+v", sum.Sim)
	}
	if d := sum.Sub(s.Snapshot()); d.Sim != want {
		t.Fatalf("Sub broken: %+v", d.Sim)
	}
	var nilStats *Stats
	nilStats.SimPatterns(1)
	nilStats.SimRefuted(true) // must not panic
}
