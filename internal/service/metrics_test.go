package service

import (
	"reflect"
	"testing"

	"fveval/internal/formal"
)

// TestHistogramFamilies pins the exposition lines of the service's own
// latency histograms and of the formal backend's solver wall-clock
// histogram for the same four observations over the same bounds.
func TestHistogramFamilies(t *testing.T) {
	seconds := []float64{0.0005, 0.002, 0.002, 7}
	buckets := []string{
		`_bucket{le="0.001"} 1`,
		`_bucket{le="0.005"} 3`,
		`_bucket{le="0.01"} 3`,
		`_bucket{le="0.05"} 3`,
		`_bucket{le="0.1"} 3`,
		`_bucket{le="0.5"} 3`,
		`_bucket{le="1"} 3`,
		`_bucket{le="5"} 3`,
		`_bucket{le="+Inf"} 4`,
	}

	var h histogram
	h.init(formal.SolveWallBuckets[:])
	var st formal.Stats
	for _, s := range seconds {
		h.observe(s)
		st.SolveWall(int64(s * 1e9))
	}

	queue := h.family("fveval_queue_wait_seconds", "help")
	want := append(append([]string(nil), buckets...), "_sum 7.0045", "_count 4")
	if queue.name != "fveval_queue_wait_seconds" || queue.typ != "histogram" || !reflect.DeepEqual(queue.lines, want) {
		t.Errorf("queue-wait family = %+v\nwant lines %q", queue, want)
	}
	solver := solverWallFamily(st.Snapshot())
	if solver.name != "fveval_solver_wall_seconds" || solver.typ != "histogram" || !reflect.DeepEqual(solver.lines, want) {
		t.Errorf("solver-wall family = %+v\nwant lines %q", solver, want)
	}
}
