package service

import (
	"fmt"
	"io"
	"runtime"
	rm "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"

	"fveval/internal/fault"
	"fveval/internal/formal"
)

// metrics is the service-local instrument set behind GET /metrics.
// Everything is hand-rolled Prometheus text exposition (version
// 0.0.4): counters and histograms accumulate here, gauges and the
// engine-backed series are sampled at scrape time, and the writer
// emits families in sorted-name order so scrapes are deterministic
// and diffable in tests.
type metrics struct {
	runsSubmitted     atomic.Int64
	admissionRejected struct {
		quota     atomic.Int64
		queueFull atomic.Int64
		draining  atomic.Int64
	}
	runsFinished sync.Map // status -> *atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	shardRetries atomic.Int64
	workerEvicts atomic.Int64
	compactions  atomic.Int64
	// Failure-path counters from the robustness layer: breaker trips
	// and recoveries plus hedges stream in from dist events during
	// distributed runs; checkpoint counters track shard partials
	// persisted to the store and shards restored from them on resume.
	breakerTrips       atomic.Int64
	breakerRecoveries  atomic.Int64
	shardHedges        atomic.Int64
	checkpointsWritten atomic.Int64
	checkpointRestores atomic.Int64

	runWall histogram
	// queueWait measures submit→dequeue admission latency. It reuses
	// the solver-wall bucket scheme: queue waits on a healthy service
	// live in the same sub-second range as solves, and sharing bounds
	// keeps the exposition's bucket vocabulary small.
	queueWait histogram
}

// finished bumps the per-terminal-status run counter.
func (m *metrics) finished(status string) {
	v, _ := m.runsFinished.LoadOrStore(status, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

// runWallBuckets are the run wall-clock histogram bounds in seconds.
var runWallBuckets = [...]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}

// histogram is a latency histogram over caller-chosen bounds; observe
// is lock-cheap enough for per-run (not per-job) granularity.
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1: one overflow bucket
	sum    float64
}

// init sets the bucket scheme; must run before the first observe.
func (h *histogram) init(bounds []float64) {
	h.bounds = bounds
	h.counts = make([]int64, len(bounds)+1)
}

// init arms the histograms; called once from service.New.
func (m *metrics) init() {
	m.runWall.init(runWallBuckets[:])
	m.queueWait.init(formal.SolveWallBuckets[:])
}

func (h *histogram) observe(seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += seconds
}

// family renders the histogram under its lock.
func (h *histogram) family(name, help string) family {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histogramFamily(name, help, h.bounds, h.counts, h.sum)
}

// family is one metric family ready to emit.
type family struct {
	name, help, typ string
	lines           []string // full sample lines, already formatted
}

// writeMetrics renders the scrape. The gauge values (queue depth,
// in-flight runs, live workers, retained runs) and the engine-backed
// counters (equiv cache, formal backend, sim prefilter, solver
// wall-clock histogram) are sampled from the server at call time.
func (s *Server) writeMetrics(w io.Writer) {
	m := &s.metrics

	s.mu.Lock()
	queued := s.queuedCount
	inflight := s.inflight
	retained := len(s.runs)
	s.mu.Unlock()
	workers := len(s.registry.live())

	cache := s.eng.CacheStats()
	fstats := s.eng.FormalStats()

	fams := []family{
		counter("fveval_breaker_recoveries_total",
			"Worker circuit breakers closed again by a successful half-open probe.",
			plain(m.breakerRecoveries.Load())),
		counter("fveval_breaker_trips_total",
			"Worker circuit breakers tripped open by consecutive shard failures.",
			plain(m.breakerTrips.Load())),
		counter("fveval_checkpoint_restores_total",
			"Distributed shards restored from store checkpoints on resume.",
			plain(m.checkpointRestores.Load())),
		counter("fveval_checkpoints_total",
			"Completed shard partials persisted to the run store.",
			plain(m.checkpointsWritten.Load())),
		faultFamily(),
		counter("fveval_shard_hedges_total",
			"Speculative straggler-shard re-dispatches (first result wins).",
			plain(m.shardHedges.Load())),
		counter("fveval_admission_rejected_total",
			"Submissions rejected at admission, by reason.",
			sample("reason", "draining", m.admissionRejected.draining.Load()),
			sample("reason", "queue_full", m.admissionRejected.queueFull.Load()),
			sample("reason", "quota", m.admissionRejected.quota.Load()),
		),
		counter("fveval_equiv_cache_hits_total",
			"Equivalence-cache hits on the engine's shared memo pool.",
			plain(cache.Hits)),
		counter("fveval_equiv_cache_misses_total",
			"Equivalence-cache misses on the engine's shared memo pool.",
			plain(cache.Misses)),
		counter("fveval_formal_conflicts_total",
			"SAT conflicts spent across all formal sessions.",
			plain(fstats.Conflicts)),
		counter("fveval_formal_queries_total",
			"Incremental formal solver sessions opened.",
			plain(fstats.Queries)),
		counter("fveval_formal_solves_total",
			"Individual incremental Solve calls issued.",
			plain(fstats.Solves)),
		counter("fveval_journal_compactions_total",
			"Run-journal snapshot compactions.",
			plain(m.compactions.Load())),
		gauge("fveval_queue_depth",
			"Runs waiting in the admission queue.",
			plain(int64(queued))),
		counter("fveval_result_cache_hits_total",
			"Submissions served from the content-addressed result store.",
			plain(m.cacheHits.Load())),
		counter("fveval_result_cache_misses_total",
			"Submissions that had to touch the engine.",
			plain(m.cacheMisses.Load())),
		m.queueWait.family("fveval_queue_wait_seconds",
			"Admission-queue wait (submit to dequeue), per executed run."),
		m.runWall.family("fveval_run_wall_seconds",
			"End-to-end run wall-clock, per executed run."),
		gauge("fveval_runs_inflight",
			"Runs currently executing.",
			plain(int64(inflight))),
		gauge("fveval_runs_retained",
			"Run records currently retained (queued, running, and terminal).",
			plain(int64(retained))),
		counter("fveval_runs_submitted_total",
			"Submissions admitted (including result-cache hits).",
			plain(m.runsSubmitted.Load())),
		counter("fveval_runs_total",
			"Runs finished, by terminal status.",
			m.statusLines()...),
		counter("fveval_shard_retries_total",
			"Distributed shard attempts that failed and were requeued.",
			plain(m.shardRetries.Load())),
		counter("fveval_sim_patterns_total",
			"Bit-parallel simulation pattern lanes evaluated.",
			plain(fstats.Sim.Patterns)),
		counter("fveval_sim_refutations_total",
			"Formal queries refuted by the simulation prefilter alone.",
			plain(fstats.Sim.Refutations)),
		solverWallFamily(fstats),
		counter("fveval_workers_evicted_total",
			"Workers evicted from the registry after missed heartbeats.",
			plain(m.workerEvicts.Load())),
		gauge("fveval_workers_live",
			"Workers currently live in the registry.",
			plain(int64(workers))),
	}
	fams = append(fams, goRuntimeFamilies()...)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, l := range f.lines {
			fmt.Fprintf(w, "%s%s\n", f.name, l)
		}
	}
}

// faultFamily samples the fault-injection subsystem at scrape time:
// total injected fires plus one labeled sample per configured point.
// Zero (with no labeled samples) whenever injection is inactive —
// i.e. always, outside chaos builds.
func faultFamily() family {
	snap := fault.Snapshot()
	points := make([]string, 0, len(snap))
	total := int64(0)
	for name, c := range snap {
		points = append(points, name)
		total += int64(c.Fires)
	}
	sort.Strings(points)
	lines := []string{plain(total)}
	for _, name := range points {
		lines = append(lines, sample("point", name, int64(snap[name].Fires)))
	}
	return counter("fveval_faults_injected_total",
		"Faults fired by the deterministic injection subsystem, total and by point.",
		lines...)
}

// statusLines renders fveval_runs_total{status=...} samples sorted by
// status for deterministic scrapes.
func (m *metrics) statusLines() []string {
	var statuses []string
	m.runsFinished.Range(func(k, _ any) bool {
		statuses = append(statuses, k.(string))
		return true
	})
	sort.Strings(statuses)
	lines := make([]string, 0, len(statuses))
	for _, st := range statuses {
		v, _ := m.runsFinished.Load(st)
		lines = append(lines, sample("status", st, v.(*atomic.Int64).Load()))
	}
	if len(lines) == 0 {
		lines = []string{sample("status", "done", 0)}
	}
	return lines
}

func counter(name, help string, lines ...string) family {
	return family{name: name, help: help, typ: "counter", lines: lines}
}

func gauge(name, help string, lines ...string) family {
	return family{name: name, help: help, typ: "gauge", lines: lines}
}

func plain(v int64) string { return fmt.Sprintf(" %d", v) }

func plainF(v float64) string { return fmt.Sprintf(" %g", v) }

func sample(label, value string, v int64) string {
	return fmt.Sprintf("{%s=%q} %d", label, value, v)
}

// histogramFamily renders a Prometheus histogram from per-bucket
// counts over bounds (one more count than bounds: the last is the +Inf
// bucket) and the sum of the observations: cumulative _bucket samples,
// _sum, and _count.
func histogramFamily(name, help string, bounds []float64, counts []int64, sum float64) family {
	lines := make([]string, 0, len(counts)+2)
	cum := int64(0)
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = fmt.Sprintf("%g", bounds[i])
		}
		lines = append(lines, fmt.Sprintf("_bucket{le=%q} %d", le, cum))
	}
	lines = append(lines,
		fmt.Sprintf("_sum %g", sum),
		fmt.Sprintf("_count %d", cum))
	return family{name: name, help: help, typ: "histogram", lines: lines}
}

// goRuntimeFamilies samples the Go runtime at scrape time: goroutine
// count, live heap bytes, cumulative GC pause, and scheduling latency
// quantiles from runtime/metrics.
func goRuntimeFamilies() []family {
	samples := []rm.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	rm.Read(samples)
	heap := int64(0)
	if samples[0].Value.Kind() == rm.KindUint64 {
		heap = int64(samples[0].Value.Uint64())
	}
	var p50, p99 float64
	if samples[1].Value.Kind() == rm.KindFloat64Histogram {
		p50 = histQuantile(samples[1].Value.Float64Histogram(), 0.5)
		p99 = histQuantile(samples[1].Value.Float64Histogram(), 0.99)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []family{
		counter("fveval_go_gc_pause_seconds_total",
			"Cumulative GC stop-the-world pause.",
			plainF(float64(ms.PauseTotalNs)/1e9)),
		gauge("fveval_go_goroutines",
			"Live goroutines.",
			plain(int64(runtime.NumGoroutine()))),
		gauge("fveval_go_heap_bytes",
			"Bytes of live heap objects.",
			plain(heap)),
		gauge("fveval_go_sched_latency_p50_seconds",
			"Median goroutine scheduling latency since process start.",
			plainF(p50)),
		gauge("fveval_go_sched_latency_p99_seconds",
			"99th-percentile goroutine scheduling latency since process start.",
			plainF(p99)),
	}
}

// histQuantile reads quantile q out of a runtime/metrics histogram,
// returning the upper bound of the bucket the quantile falls in (the
// conservative estimate; +Inf degrades to the last finite bound).
func histQuantile(h *rm.Float64Histogram, q float64) float64 {
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			hi := h.Buckets[i+1]
			if hi > 1e300 || hi != hi { // +Inf bucket
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// solverWallFamily renders the formal backend's per-check wall-clock
// histogram from the engine's cumulative snapshot.
func solverWallFamily(s formal.Snapshot) family {
	return histogramFamily("fveval_solver_wall_seconds",
		"Formal-check wall-clock, per equivalence pair or model-checking property.",
		formal.SolveWallBuckets[:], s.SolveWallHist[:], float64(s.SolveWallNS)/1e9)
}
