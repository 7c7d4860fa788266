package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates, like Python
		{[]float64{4, 4, 4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", s)
	}
}

func TestPercentileClampsAndPropagatesMisses(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Errorf("p99 of five samples = %v, want the maximum 5 (no extrapolation)", got)
	}
	if got := percentile(xs, 0.01); got != 1 {
		t.Errorf("p1 of five samples = %v, want the minimum 1", got)
	}
	withMiss := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withMiss, 0.5); got != 2.5 {
		t.Errorf("median with one miss = %v, want 2.5", got)
	}
	if got := percentile(withMiss, 0.75); !math.IsInf(got, 1) {
		t.Errorf("p75 reaching a miss = %v, want +Inf", got)
	}
}

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{39, 0},     // even p75 would leave only 9.75 beyond
		{40, 0.75},  // exactly 10 beyond p75
		{99, 0.75},  // 9.9 beyond p90 is not enough
		{100, 0.9},  // 10 beyond p90
		{200, 0.95}, // 10 beyond p95
		{999, 0.95},
		{1000, 0.99},
		{10000, 0.999},
	}
	for _, c := range cases {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestOpenLoopLatencyCountsLatenessAndMisses(t *testing.T) {
	a := arrival{Due: 100, Sent: 130, Done: 150}
	if got := a.latency(); got != 50 {
		t.Errorf("latency = %v, want 50 (measured from the due time, not the send)", got)
	}
	if got := a.lateness(); got != 30 {
		t.Errorf("lateness = %v, want 30", got)
	}
	refused := arrival{Due: 100, Sent: 100, Done: 101, Miss: true}
	if got := refused.latency(); !math.IsInf(got, 1) {
		t.Errorf("refused latency = %v, want +Inf", got)
	}
	// A refusal misses every limit, so a phase with one cannot be
	// sustained however fast the rest were.
	ph := phase{Rate: 20}
	for i := 0; i < 40; i++ {
		ph.Arrivals = append(ph.Arrivals, arrival{Due: float64(i), Sent: float64(i), Done: float64(i) + 1})
	}
	if !ph.sustains(0.95, 250) {
		t.Fatal("a fast phase should be sustained")
	}
	ph.Arrivals[7] = refused
	if ph.sustains(0.95, 250) {
		t.Error("a phase with a refusal must not be sustained")
	}
}

func TestBacklogGrowth(t *testing.T) {
	steady := []float64{10, 12, 9, 11, 10, 13, 12, 9, 10, 11, 12, 10}
	if backlogGrowing(steady) {
		t.Error("steady latencies flagged as a growing backlog")
	}
	var growing []float64
	for i := 0; i < 12; i++ {
		growing = append(growing, 10+float64(i)*5) // queue builds linearly
	}
	if !backlogGrowing(growing) {
		t.Error("linearly growing latencies not flagged")
	}
	missesAtEnd := append(append([]float64(nil), steady[:9]...), math.Inf(1), math.Inf(1), math.Inf(1))
	if !backlogGrowing(missesAtEnd) {
		t.Error("misses piling up at the end not flagged")
	}
	if backlogGrowing([]float64{1, 100, 1}) {
		t.Error("fewer than four samples cannot show growth")
	}
}

func TestMaxRatePicksHighestSustainedRate(t *testing.T) {
	mk := func(rate, lat float64, n int) phase {
		ph := phase{Rate: rate}
		for i := 0; i < n; i++ {
			ph.Arrivals = append(ph.Arrivals, arrival{Due: float64(i), Sent: float64(i), Done: float64(i) + lat})
		}
		return ph
	}
	phases := []phase{mk(20, 10, 40), mk(40, 20, 40), mk(80, 400, 40), mk(160, 900, 40)}
	if got := maxRate(phases, 0.95, 250); got != 40 {
		t.Errorf("maxRate = %v, want 40", got)
	}
	if got := maxRate(phases[2:], 0.95, 250); got != 0 {
		t.Errorf("maxRate over overloaded phases = %v, want 0", got)
	}
}

func TestCompareAgainstBound(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name        string
		parent      []float64
		change      []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", parent, parent, true, "unchanged"},
		{"slower by 5%", parent, shift(parent, 1.05), true, "unchanged"},
		{"slower by 15%", parent, shift(parent, 1.15), true, "regressed"},
		{"faster by 15%", parent, shift(parent, 0.85), true, "unchanged"},
		{"throughput down 15%", parent, shift(parent, 0.85), false, "regressed"},
		// Parent noise wider than the bound: a small shift cannot be
		// called unchanged...
		{"noisy parent", []float64{70, 130, 80, 120, 100, 90, 110, 75, 125, 100}, shift(parent, 1.02), true, "unresolved"},
		// ...unless every change run beats every parent run.
		{"noisy parent, change always better", []float64{170, 230, 180, 220, 200, 190, 210, 175, 225, 200}, parent, true, "unchanged"},
	}
	for _, c := range cases {
		if got := compare(c.parent, c.change, 0.10, c.lowerBetter); got != c.want {
			t.Errorf("%s: compare = %q, want %q", c.name, got, c.want)
		}
	}
}
