package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates the p-quantile (0 < p < 1) at rank (n+1)p,
// clamped to the sample's range, so it never extrapolates. +Inf values
// (requests that missed every limit) sort last and propagate: a rank
// that reaches one reads +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	h := p * float64(len(s)+1)
	h = math.Max(1, math.Min(float64(len(s)), h))
	lo := int(h) - 1
	frac := h - math.Floor(h)
	if frac == 0 || lo+1 >= len(s) {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) {
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(xs, n=4),
// including its extrapolation for very small samples, so spreads
// computed here match the ones the benchmark's bounds are checked
// against.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound has to clear.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// tailLevels are the percentiles a timing may be reported at, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tailLevel returns the highest tail percentile that n samples support
// — at least ten samples must lie beyond it — or 0 when n is too small
// for any.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// arrival is one request of an open-loop schedule. Times are in
// milliseconds on one clock.
type arrival struct {
	// Due is when the schedule said to send the request; Sent is when
	// the generator actually sent it.
	Due, Sent float64
	// Done is when the request reached its terminal state.
	Done float64
	// Miss marks a request that was refused, failed, or ended in a
	// state other than done: it misses every latency limit.
	Miss bool
}

// latency is measured from the due time, so a stalled generator's
// lateness counts against the system as the wait a user would see.
func (a arrival) latency() float64 {
	if a.Miss {
		return math.Inf(1)
	}
	return a.Done - a.Due
}

// lateness is how far behind schedule the generator sent the request.
func (a arrival) lateness() float64 { return a.Sent - a.Due }

func latencies(as []arrival) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.latency()
	}
	return out
}

// backlogGrowing reports whether latencies (in arrival order) show a
// queue that grows for as long as the rate is held: the median of the
// last quarter exceeds twice the median of the first.
func backlogGrowing(lat []float64) bool {
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	return median(lat[len(lat)-q:]) > 2*median(lat[:q])
}

// phase summarises the arrivals sent at one rate of a load ladder.
type phase struct {
	Rate     float64
	Arrivals []arrival
}

// sustains reports whether the system kept up with the phase's rate:
// the percentile p of latency is within limitMS, nothing missed, and
// the backlog did not grow.
func (ph phase) sustains(p, limitMS float64) bool {
	lat := latencies(ph.Arrivals)
	for _, l := range lat {
		if math.IsInf(l, 1) {
			return false
		}
	}
	return percentile(lat, p) <= limitMS && !backlogGrowing(lat)
}

// maxRate is the highest ladder rate the system sustains (0 when it
// sustains none).
func maxRate(phases []phase, p, limitMS float64) float64 {
	best := 0.0
	for _, ph := range phases {
		if ph.Rate > best && ph.sustains(p, limitMS) {
			best = ph.Rate
		}
	}
	return best
}

// compare classifies one metric of a change against its parent, given
// both sides' runs and the bound by which the metric may worsen:
// "regressed" when the change's median is
// worse by more than the bound; otherwise "unresolved" when the
// parent's own spread is wider than the bound, unless every run of the
// change reads better than every run of the parent; otherwise
// "unchanged".
func compare(parent, change []float64, bound float64, lowerBetter bool) string {
	pm, cm := median(parent), median(change)
	worse := (cm - pm) / math.Abs(pm)
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	if spread(parent) > bound && !allBetter(parent, change, lowerBetter) {
		return "unresolved"
	}
	return "unchanged"
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, lowerBetter bool) bool {
	p, c := sorted(parent), sorted(change)
	if lowerBetter {
		return c[len(c)-1] < p[0]
	}
	return c[0] > p[len(p)-1]
}
