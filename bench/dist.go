package main

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"fveval/internal/core"
	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/gen/svagen"
	"fveval/internal/service"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

// The dist-http workload runs NL2SVA-Machine pass@k through the
// distributed coordinator: dist.New with two shards over two
// in-process fvevald workers on loopback TCP, each with a fresh
// one-worker engine per iteration — two single-core workers on a
// 2-vCPU box. Every iteration is paired with the same request on a
// single task.Engine, so the difference is the shard dispatch, the
// partial JSON and the merge.
const distTask = "nl2sva-machine-passk"

const distWorkers = 2

// fleet is distWorkers in-process fvevald workers.
type fleet []*server

func startFleet(ctx context.Context) (fleet, error) {
	var f fleet
	for i := 0; i < distWorkers; i++ {
		s, err := startServer(ctx, service.Config{}, engine.Config{Workers: 1})
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, s)
	}
	return f, nil
}

func (f fleet) stop() {
	for _, s := range f {
		s.stop()
	}
	// Idle keep-alive connections to the stopped workers would linger
	// in the shared transport the HTTP runners use.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func distSetup(ctx context.Context, _ string) (func(), error) {
	f, err := startFleet(ctx)
	if err != nil {
		return nil, err
	}
	return f.stop, nil
}

// runDistributed brings up a fresh fleet (off the clock), runs the
// request through the coordinator, checks the merged report, and
// returns the run's wall time.
func runDistributed(ctx context.Context, rep *report, req task.Request) (time.Duration, error) {
	core.ResetMemos()
	svagen.ResetCache()
	runtime.GC()
	f, err := startFleet(ctx)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	coord, err := dist.New([]dist.Runner{dist.NewHTTPRunner(f[0].url), dist.NewHTTPRunner(f[1].url)}, dist.Options{Shards: distWorkers})
	if err != nil {
		return 0, err
	}
	rep.attempted++
	start := time.Now()
	res, err := coord.Run(ctx, req)
	wall := time.Since(start)
	if err != nil {
		rep.fail("distributed %s: %v", req.Task, err)
		return wall, nil
	}
	checkReport(rep, req.Task, res.Run.Report, digests[req.Task])
	return wall, nil
}

// runDist measures the distributed path in pairs with the single
// engine, alternating which side of a pair runs first.
func runDist(ctx context.Context, c config) (*report, error) {
	reqs := requests([]string{distTask})
	expect := recorded(reqs)
	rep := newReport()
	rep.offPath = []string{"svc."}
	su := newSetups(c)
	start := time.Now()
	warm := start.Add(c.seconds * warmShare / 100)
	end := start.Add(c.seconds)
	if c.trace {
		end = start.Add(c.seconds * 35 / 100)
	}

	var dwalls []float64 // seconds
	var singles []engineRun
	var rss *rssSampler
	for i := 0; ctx.Err() == nil; i++ {
		if err := su.due(ctx); err != nil {
			return nil, err
		}
		pairStart := time.Now()
		var d time.Duration
		var s engineRun
		var err error
		if i%2 == 0 {
			d, err = runDistributed(ctx, rep, reqs[0])
			s = evaluate(ctx, rep, reqs, 0, expect)
		} else {
			s = evaluate(ctx, rep, reqs, 0, expect)
			d, err = runDistributed(ctx, rep, reqs[0])
		}
		if err != nil {
			return nil, err
		}
		switch {
		case i >= 2 && rss != nil:
			dwalls = append(dwalls, d.Seconds())
			singles = append(singles, s)
		case i >= 1 && time.Now().After(warm): // warm-up over
			rss = sampleRSS()
		}
		if len(dwalls) >= 3 && time.Now().Add(time.Since(pairStart)).After(end) {
			break
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err := rss.finish(rep); err != nil {
		return nil, err
	}
	if !c.trace {
		rep.dist("lat_p50_ms", "ms", scale(dwalls, 1e3))
		rep.dist("wall_s", "s", dwalls).note = "the same distributed runs"
		rep.dist("single_p50_ms", "ms", scale(walls(singles), 1e3)).note = "the paired single-engine runs"
		return rep, su.finish(ctx, rep)
	}

	rep.set("dist.overhead_ratio", "ratio", median(dwalls)/median(walls(singles))).note = "distributed wall / paired single-engine wall"
	single, err := perLayer(ctx, rep, reqs, expect, c.traceOut)
	if err != nil {
		return nil, err
	}
	reportEngine(rep, singles, single)
	return rep, distSteps(ctx, rep, reqs[0])
}

// distSteps runs the distributed path step by step on a fresh
// fleet, twice, timing each step from outside: the shard plan, the two
// concurrent shard runs over HTTP (client.RunShard), the partials'
// encode and decode, and the merge. The second round is reported.
func distSteps(ctx context.Context, rep *report, req task.Request) error {
	type steps struct {
		plan, codec, merge, wall time.Duration
		shards                   [distWorkers]time.Duration
		bytes                    int
	}
	var last steps
	for round := 0; round < 2; round++ {
		core.ResetMemos()
		svagen.ResetCache()
		runtime.GC()
		f, err := startFleet(ctx)
		if err != nil {
			return err
		}
		var st steps
		rep.attempted++
		start := time.Now()
		plan, err := dist.PlanShards(req, distWorkers)
		if err != nil {
			f.stop()
			return err
		}
		st.plan = time.Since(start)
		parts := make([]*task.Partial, distWorkers)
		errs := make([]error, distWorkers)
		var wg sync.WaitGroup
		for i := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := time.Now()
				parts[i], errs[i] = client.New(f[i].url).RunShard(ctx, plan.Shards[i])
				st.shards[i] = time.Since(t)
			}()
		}
		wg.Wait()
		f.stop()
		for _, err := range errs {
			if err != nil {
				rep.fail("shard: %v", err)
				return nil
			}
		}
		t := time.Now()
		for i, p := range parts {
			data, err := p.Encode()
			if err != nil {
				return err
			}
			st.bytes += len(data)
			if parts[i], err = task.DecodePartial(data); err != nil {
				return err
			}
		}
		st.codec = time.Since(t)
		t = time.Now()
		merged, err := task.MergeReports(parts)
		st.merge = time.Since(t)
		st.wall = time.Since(start)
		if err != nil {
			rep.fail("merge: %v", err)
			return nil
		}
		checkReport(rep, req.Task, merged, digests[req.Task])
		last = st
	}
	slow, fast := max(last.shards[0], last.shards[1]), min(last.shards[0], last.shards[1])
	wall := last.wall.Seconds() * 1e3
	rep.set("dist.plan_ms", "ms", ms(last.plan))
	rep.set("dist.shard_ms.max", "ms", ms(slow))
	rep.set("dist.shard_ms.min", "ms", ms(fast))
	rep.set("dist.shard_skew", "ratio", float64(slow)/float64(fast)).note = "slowest / fastest shard"
	rep.set("dist.partial_kb", "KB", float64(last.bytes)/1e3).note = "both encoded partials"
	rep.set("dist.codec_ms", "ms", ms(last.codec))
	rep.set("dist.merge_ms", "ms", ms(last.merge))
	rep.set("dist.shard_pct", "%", 100*ms(slow)/wall).note = "share of the step-by-step run's wall"
	rep.set("dist.codec_pct", "%", 100*ms(last.codec)/wall).note = "share of the step-by-step run's wall"
	rep.set("dist.merge_pct", "%", 100*ms(last.merge)/wall).note = "share of the step-by-step run's wall"
	return nil
}
