package main

import (
	"context"
	"runtime"
	"time"

	"fveval/internal/core"
	"fveval/internal/engine"
	"fveval/internal/equiv"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/gen/svagen"
	"fveval/internal/helpergen"
	"fveval/internal/task"
)

// offlineTasks lists, per offline workload, the registry tasks one
// iteration evaluates in sequence on one fresh engine, at the paper's
// default parameters.
var offlineTasks = map[string][]string{
	"design2sva": {"design2sva"},
	"agr":        {"agr"},
	"nl2sva":     {"nl2sva-human", "nl2sva-machine", "nl2sva-machine-passk", "refinement"},
}

func requests(names []string) []task.Request {
	reqs := make([]task.Request, len(names))
	for i, n := range names {
		reqs[i] = task.Request{Task: n}
	}
	return reqs
}

// engineRun is what one closed-loop iteration measured. It keeps no
// report: reports retained across iterations would grow the heap, and
// with it memory and collector work, with the iteration count.
type engineRun struct {
	wall   time.Duration
	rt     rtSample
	cache  equiv.CacheStats
	formal formal.Snapshot
	rounds int64
}

// evaluate runs reqs in sequence on a fresh engine with the given
// worker count (0: GOMAXPROCS), after clearing the process-wide memos:
// what one fveval process does. Off the clock, each report is checked
// against the digest expect gives for its index; failures count on rep.
func evaluate(ctx context.Context, rep *report, reqs []task.Request, workers int, expect func(i int) string) engineRun {
	runtime.GC()
	r0 := readRuntime()
	start := time.Now()
	core.ResetMemos()
	svagen.ResetCache()
	eng := task.NewEngine(engine.Config{Workers: workers})
	var out engineRun
	reports := make([]*task.Report, len(reqs))
	for i, req := range reqs {
		if req.Options != (engine.Config{}) {
			// A request with options runs on a derived engine that
			// takes its worker count from them.
			req.Options.Workers = workers
		}
		rep.attempted++
		run, err := eng.Run(ctx, req)
		if err != nil {
			rep.fail("%s: %v", req.Task, err)
			continue
		}
		out.cache.Hits += run.Stats.Cache.Hits
		out.cache.Misses += run.Stats.Cache.Misses
		out.formal = out.formal.Add(run.Stats.Formal)
		out.rounds += run.Stats.RefineRounds
		reports[i] = run.Report
	}
	out.wall = time.Since(start)
	out.rt = readRuntime().sub(r0)
	for i, r := range reports {
		if r != nil {
			checkReport(rep, reqs[i].Task, r, expect(i))
		}
	}
	return out
}

// recorded expects the recorded digest of each default-parameter
// request.
func recorded(reqs []task.Request) func(i int) string {
	return func(i int) string { return digests[reqs[i].Task] }
}

// warmShare is the share of a run's budget, in percent, spent warming
// up: the first iterations of a process run slower while its heap
// grows to its working size.
const warmShare = 15

// repeat runs iterations until the next one would end past the
// deadline, and at least min of them, taking set-up samples between
// them as they fall due.
func repeat(ctx context.Context, rep *report, reqs []task.Request, workers int, deadline time.Time, min int, expect func(i int) string, su *setups) ([]engineRun, error) {
	var runs []engineRun
	for ctx.Err() == nil && (len(runs) < min || time.Now().Add(runs[len(runs)-1].wall).Before(deadline)) {
		if err := su.due(ctx); err != nil {
			return nil, err
		}
		runs = append(runs, evaluate(ctx, rep, reqs, workers, expect))
	}
	return runs, ctx.Err()
}

func walls(runs []engineRun) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.wall.Seconds()
	}
	return out
}

// offlineSetup is what a fresh process does before its first
// evaluation: build the engine, resolve the requests against the
// registry, and materialise every dataset they read.
func offlineSetup(_ context.Context, workload string) (func(), error) {
	_ = task.NewEngine(engine.Config{})
	for _, req := range requests(offlineTasks[workload]) {
		canon, err := req.Canonical()
		if err != nil {
			return nil, err
		}
		switch canon.Task {
		case "design2sva":
			for _, kind := range canon.Params.Kinds {
				rtlgen.Sweep96(kind)
			}
		case "agr":
			helpergen.Sweep()
		case "nl2sva-human":
			if _, err := core.LoadHuman(); err != nil {
				return nil, err
			}
		default:
			core.LoadMachine(canon.Params.Count)
		}
	}
	return func() {}, nil
}

// runOffline measures one closed-loop workload: one client runs the
// workload's requests on a fresh engine, again and again.
func runOffline(ctx context.Context, c config) (*report, error) {
	reqs := requests(offlineTasks[c.workload])
	expect := recorded(reqs)
	rep := newReport()
	rep.offPath = []string{"dist.", "svc."}
	su := newSetups(c)
	deadline := time.Now().Add(c.seconds)
	if _, err := repeat(ctx, rep, reqs, 0, time.Now().Add(c.seconds*warmShare/100), 2, expect, su); err != nil { // warm-up
		return nil, err
	}
	if !c.trace {
		rss := sampleRSS()
		runs, err := repeat(ctx, rep, reqs, 0, deadline, 3, expect, su)
		if err != nil {
			return nil, err
		}
		if err := rss.finish(rep); err != nil {
			return nil, err
		}
		rep.dist("lat_p50_ms", "ms", scale(walls(runs), 1e3))
		rep.dist("wall_s", "s", walls(runs)).note = "the same timed iterations"
		return rep, su.finish(ctx, rep)
	}

	single, err := perLayer(ctx, rep, reqs, expect, c.traceOut)
	if err != nil {
		return nil, err
	}
	multi, err := repeat(ctx, rep, reqs, 0, deadline, 2, expect, su)
	if err != nil {
		return nil, err
	}
	reportEngine(rep, multi, single)
	return rep, nil
}

// reportEngine reports the engine's own metrics from untraced runs at
// the default worker count, with the Workers=1 runs as the parallel
// reference. Formal counters of multi-worker runs vary with scheduling,
// so they are reported as approximate and never gated.
func reportEngine(rep *report, multi, single []engineRun) {
	var alloc, gc []float64
	var cache equiv.CacheStats
	for _, r := range multi {
		alloc = append(alloc, r.rt.allocBytes/1e6)
		gc = append(gc, r.rt.gcCPU)
		cache.Hits += r.cache.Hits
		cache.Misses += r.cache.Misses
	}
	rep.dist("engine.alloc_mb", "MB", alloc)
	rep.dist("engine.gc_cpu_s", "s", gc)
	rep.set("engine.cache_hit_ratio", "ratio", ratio(cache.Hits, cache.Hits+cache.Misses))
	rep.set("engine.parallel_speedup", "ratio", median(walls(single))/median(walls(multi))).note = "Workers=1 wall / default-worker wall"
	last := multi[len(multi)-1].formal
	rep.set("engine.formal.solves", "count", float64(last.Solves)).note = "approximate: multi-worker counters vary with scheduling"
	rep.set("engine.formal.conflicts", "count", float64(last.Conflicts)).note = "approximate: multi-worker counters vary with scheduling"
	if !sameCounts(single[0], single[1]) {
		rep.note("Workers=1 engine counters did not repeat: %+v vs %+v", exact(single[0].formal), exact(single[1].formal))
	}
}

func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}
