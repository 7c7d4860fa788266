package main

import (
	"context"
	"fmt"
	"maps"
	"os"

	"fveval/internal/formal"
	"fveval/internal/obs"
	"fveval/internal/task"
)

// layerSpans maps the spans a traced engine run records itself
// (internal/engine, core, equiv and mc) to the per-layer metric that
// reports their self time as a share of the traced run's wall.
var layerSpans = []struct{ span, metric string }{
	// A job span's own time: code extraction, memo lookups, and the
	// checkers' set-up and encoding outside the steps below.
	{"job", "job.self"},
	{"generate", "llm.generate"},
	{"bleu", "metrics.bleu"},
	// SVA parse and validate on NL2SVA; RTL parse, elaboration and
	// validation on Design2SVA. AGR's judge records no parse span.
	{"parse", "core.parse"},
	{"sim", "sim.prefilter"},
	{"ramp", "equiv.ramp"},
	{"bmc", "mc.bmc"},
	{"induct", "mc.induct"},
	{"lasso", "mc.lasso"},
}

// spanCap bounds a traced run's span ring. The ring grows only as
// spans land, and a run that overflows it is not measured.
const spanCap = 1 << 22

// spanTally is what one traced run's spans add up to.
type spanTally struct {
	selfMS    map[string]float64 // per span name: duration minus the time its children cover
	count     map[string]int
	jobsUS    []float64
	jobsMS    float64 // total job duration
	memoHits  int     // jobs answered from the engine's judgment memo
	parseFail int     // parse spans that ended not ok
}

func tally(spans []obs.SpanData) spanTally {
	children := map[uint64]int64{}
	for _, s := range spans {
		children[s.Parent] += s.Dur
	}
	t := spanTally{selfMS: map[string]float64{}, count: map[string]int{}}
	for _, s := range spans {
		t.selfMS[s.Name] += float64(max(s.Dur-children[s.ID], 0)) / 1e6
		t.count[s.Name]++
		switch s.Name {
		case "job":
			t.jobsUS = append(t.jobsUS, float64(s.Dur)/1e3)
			t.jobsMS += float64(s.Dur) / 1e6
			if boolAttr(s, "memo_hit") {
				t.memoHits++
			}
		case "parse":
			if !boolAttr(s, "ok") {
				t.parseFail++
			}
		}
	}
	return t
}

func boolAttr(s obs.SpanData, key string) bool {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Bool
		}
	}
	return false
}

// exact drops the wall-clock fields of a formal snapshot, leaving the
// counters that repeat exactly in a one-goroutine run.
func exact(s formal.Snapshot) formal.Snapshot {
	s.SolveWallNS = 0
	s.SolveWallHist = [formal.SolveWallBucketCount]int64{}
	return s
}

// sameCounts reports whether two Workers=1 runs of the same requests
// counted the same formal work, cache traffic and refinement rounds.
func sameCounts(a, b engineRun) bool {
	return exact(a.formal) == exact(b.formal) && a.cache == b.cache && a.rounds == b.rounds
}

// perLayer reports each layer's metrics for reqs from two traced
// Workers=1 runs, whose spans the engine records itself, and returns
// the two untraced Workers=1 runs it alternates them with, so drift of
// the host's speed falls on both alike. Only a one-goroutine run gives
// exact counts; counts that fail to repeat are noted, not failed,
// because they say nothing about the outputs.
func perLayer(ctx context.Context, rep *report, reqs []task.Request, expect func(i int) string, traceOut string) ([]engineRun, error) {
	single := make([]engineRun, 2)
	var runs [2]engineRun
	var tallies [2]spanTally
	var last []obs.SpanData
	for i := range runs {
		single[i] = evaluate(ctx, rep, reqs, 1, expect)
		rec := obs.NewRecorder(spanCap)
		runs[i] = evaluate(obs.NewContext(ctx, rec), rep, reqs, 1, expect)
		spans, dropped := rec.Snapshot()
		if dropped > 0 {
			return nil, fmt.Errorf("the trace dropped %d spans; its ring holds %d", dropped, spanCap)
		}
		tallies[i], last = tally(spans), spans
	}
	a, b := tallies[0], tallies[1]
	if !sameCounts(runs[0], runs[1]) || !maps.Equal(a.count, b.count) || a.memoHits != b.memoHits || a.parseFail != b.parseFail {
		rep.note("traced counts did not repeat: %+v %v vs %+v %v", exact(runs[0].formal), a.count, exact(runs[1].formal), b.count)
	}
	if !sameCounts(runs[0], single[0]) {
		rep.note("traced counters differ from the untraced Workers=1 run: %+v vs %+v", exact(runs[0].formal), exact(single[0].formal))
	}

	wallMS := 1e3 * (runs[0].wall.Seconds() + runs[1].wall.Seconds()) / 2
	pct := func(ms float64) float64 { return 100 * ms / wallMS }
	rep.set("trace.wall_s", "s", wallMS/1e3)
	rep.set("trace.overhead_ratio", "ratio", wallMS/1e3/median(walls(single))-1).note = "traced Workers=1 wall / untraced Workers=1 wall - 1"
	rep.set("engine.other_pct", "%", pct(wallMS-(a.jobsMS+b.jobsMS)/2)).note = "outside every job: dataset load, prompts, report fold"
	for _, l := range layerSpans {
		self := (a.selfMS[l.span] + b.selfMS[l.span]) / 2
		rep.set(l.metric+"_pct", "%", pct(self)).note = fmt.Sprintf("%.4g ms self time", self)
	}

	rep.set("job.count", "count", float64(len(a.jobsUS)))
	if len(a.jobsUS) > 0 {
		rep.set("job.p50_us", "us", median(a.jobsUS))
		p := tailLevel(len(a.jobsUS))
		rep.set("job.p99_us", "us", percentile(a.jobsUS, 0.99)).note = fmt.Sprintf("highest supported percentile p%g=%.6g", 100*p, percentile(a.jobsUS, p))
	}
	rep.set("job.memo_hit_ratio", "ratio", ratio(int64(a.memoHits), int64(len(a.jobsUS))))
	rep.set("core.parse_calls", "count", float64(a.count["parse"]))
	rep.set("core.parse_fail", "count", float64(a.parseFail))
	rep.set("equiv.ramp_steps", "count", float64(a.count["ramp"]))
	rep.set("mc.sat_steps", "count", float64(a.count["bmc"]+a.count["induct"]+a.count["lasso"]))

	r := runs[0]
	f := r.formal
	rep.set("equiv.memo_hit_ratio", "ratio", ratio(r.cache.Hits, r.cache.Hits+r.cache.Misses))
	rep.set("formal.queries", "count", float64(f.Queries))
	rep.set("formal.solves", "count", float64(f.Solves))
	rep.set("formal.conflicts", "count", float64(f.Conflicts))
	rep.set("formal.encoded", "count", float64(f.Encoded))
	rep.set("formal.gates_shared", "count", float64(f.GatesShared))
	rep.set("formal.solve_pct", "%", pct(float64(runs[0].formal.SolveWallNS+runs[1].formal.SolveWallNS)/2e6))
	rep.set("sim.patterns", "count", float64(f.Sim.Patterns))
	rep.set("sim.refutations", "count", float64(f.Sim.Refutations))
	rep.set("sim.bank_hits", "count", float64(f.Sim.BankHits))
	rep.set("sim.hit_ratio", "ratio", ratio(f.Sim.Refutations, f.Sim.Refutations+f.Solves))
	rep.set("lemma.proved", "count", float64(f.Lemma.Proved))

	if traceOut == "" {
		return single, nil
	}
	data, err := obs.ChromeTrace(last)
	if err != nil {
		return nil, err
	}
	return single, os.WriteFile(traceOut, data, 0o644)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
