package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"fveval/internal/core"
	"fveval/internal/engine"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/service"
	"fveval/internal/service/api"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

// The service-open workload is an open loop: independent users submit
// runs on a seeded Poisson schedule, whether or not earlier runs have
// finished, to one in-process fvevald (service.New with its defaults
// and a journal directory, so every submission is journaled and
// fsynced). The load comes from this one process over at most
// svcConns connections.
//
// No request log exists to take the traffic mix from, so its shape is
// derived where the repository gives a source and assumed where it
// does not. Derived: which task a new request evaluates (below) and the
// request's parameters, which are the registry defaults. Assumed: the
// share of repeats, how recent a repeated request is, the number of
// users, one model per request, and the instance window. The result
// cache's hit ratio on this workload follows from the assumed repeat
// share; it measures no property of real traffic.
const (
	svcConns        = 2    // connections, and so in-flight requests, at most
	svcUsers        = 64   // simulated users, one X-API-Key each (assumed)
	svcRepeatShare  = 0.25 // arrivals that repeat an earlier request (assumed)
	svcRecent       = 128  // a repeat re-submits one of this many latest distinct requests (assumed)
	svcLimitMS      = 250  // latency limit on p95 for svc.max_rate_rps
	svcSpotEach     = 2    // spot-checked requests per task
	svcRepeatChecks = 16   // repeated requests whose completions are compared
)

// svcRates is the load ladder in arrivals per second. lat_p50_ms pools
// the first svcGated rates, below the knee: near it, queueing
// amplifies host noise beyond any bound. Pooling three rates rather
// than two narrowed the run-to-run spread from 21 % to 17 % over ten
// runs, each statistic taken from the same runs.
var svcRates = []float64{50, 100, 200, 400}

const svcGated = 3

// svcTask is a task new requests evaluate: its dataset's size, and the
// number of instances the repository's own example of the task
// evaluates.
type svcTask struct {
	name          string
	size, example int
}

// svcTasks reads the served tasks' dataset sizes from the registry
// (NL2SVA-Machine at its default count) and pairs them with the
// examples' sizes: examples/nl2sva_machine evaluates 60 NL2SVA-Machine
// instances, examples/quickstart 20 NL2SVA-Human instances, and
// scripts/cluster_smoke.sh runs AGR over its whole dataset.
func svcTasks() ([]svcTask, error) {
	human, err := core.LoadHuman()
	if err != nil {
		return nil, err
	}
	machine, err := task.Request{Task: "nl2sva-machine"}.Canonical()
	if err != nil {
		return nil, err
	}
	agr := len(helpergen.Sweep())
	return []svcTask{
		{"nl2sva-machine", machine.Params.Count, 60},
		{"nl2sva-human", len(human), 20},
		{"agr", agr, agr},
	}, nil
}

// svcRequest is one distinct submission of the schedule.
type svcRequest struct {
	sub  api.Submission
	uses int // arrivals that submit it
}

// svcArrival is one scheduled submission.
type svcArrival struct {
	phase int     // -1 for warm-up, else an index into svcRates
	dueMS float64 // offset from the schedule's start
	user  int
	req   int // index into the distinct requests
}

// schedule builds the seeded arrival schedule: warm warm-up arrivals at
// the first rate, then perRate arrivals at each ladder rate. An arrival
// repeats an earlier request with probability svcRepeatShare (the
// result-cache path). Otherwise it is a new request whose task is the
// one a problem drawn uniformly from all the tasks' instances belongs
// to, so tasks come in proportion to their dataset sizes. It takes the
// registry defaults, one model drawn from the registry's models, and an
// instance limit drawn uniformly from 1 to twice its example's size
// (at most the dataset's), so that requests average the example's size
// and requests for one task and model are not all the same request.
func schedule(seed int64, warm, perRate int, tasks []svcTask) ([]svcArrival, []*svcRequest) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	models := llm.Models()
	instances := 0
	for _, t := range tasks {
		instances += t.size
	}
	var reqs []*svcRequest
	index := map[string]int{}
	var out []svcArrival
	t := 0.0
	add := func(phase int, rate float64) {
		t += rng.ExpFloat64() / rate * 1e3
		a := svcArrival{phase: phase, dueMS: t, user: rng.IntN(svcUsers)}
		if rng.Float64() < svcRepeatShare && len(reqs) > 0 {
			a.req = len(reqs) - 1 - rng.IntN(min(len(reqs), svcRecent))
		} else {
			pick := rng.IntN(instances)
			var tk svcTask
			for _, tk = range tasks {
				if pick < tk.size {
					break
				}
				pick -= tk.size
			}
			r := &svcRequest{}
			r.sub.Task = tk.name
			r.sub.Params = task.Params{Models: []string{models[rng.IntN(len(models))].Name()}}
			r.sub.Options = engine.Config{Limit: 1 + rng.IntN(min(2*tk.example, tk.size))}
			key, _ := json.Marshal(r.sub)
			if i, ok := index[string(key)]; ok {
				a.req = i
			} else {
				index[string(key)] = len(reqs)
				a.req = len(reqs)
				reqs = append(reqs, r)
			}
		}
		reqs[a.req].uses++
		out = append(out, a)
	}
	for i := 0; i < warm; i++ {
		add(-1, svcRates[0])
	}
	for p, rate := range svcRates {
		for i := 0; i < perRate; i++ {
			add(p, rate)
		}
	}
	return out, reqs
}

// checks picks, by seed, the distinct requests whose report bytes the
// benchmark compares: svcSpotEach of each task, recomputed on a local
// engine after the ladder, and up to svcRepeatChecks of the repeated
// ones, whose every completion must return the first completion's
// bytes. Fetching every run's full report would load the service as
// much as the traffic it measures.
func checks(seed int64, reqs []*svcRequest, tasks []svcTask) (spots, repeats []int) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xc4ec))
	pick := func(keep func(r *svcRequest) bool, n int) []int {
		var of []int
		for i, r := range reqs {
			if keep(r) {
				of = append(of, i)
			}
		}
		rng.Shuffle(len(of), func(i, j int) { of[i], of[j] = of[j], of[i] })
		return of[:min(n, len(of))]
	}
	for _, t := range tasks {
		spots = append(spots, pick(func(r *svcRequest) bool { return r.sub.Task == t.name }, svcSpotEach)...)
	}
	repeats = pick(func(r *svcRequest) bool { return r.uses > 1 }, svcRepeatChecks)
	return spots, repeats
}

// server is one in-process fvevald on a loopback port.
type server struct {
	url  string
	svc  *service.Server
	http *http.Server
	done chan struct{}
}

// startServer starts a service with a fresh engine of the given
// configuration and waits until /readyz answers 200.
func startServer(ctx context.Context, cfg service.Config, eng engine.Config) (*server, error) {
	cfg.Engine = task.NewEngine(eng)
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), svc: svc, http: &http.Server{Handler: svc}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	if err := waitReady(ctx, s.url); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func waitReady(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	cl := client.New(url)
	for {
		err := cl.Ready(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", url, err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop closes the listener and every connection, stops the service,
// and waits for the serving goroutine.
func (s *server) stop() {
	s.http.Close()
	s.svc.Close()
	<-s.done
}

// serviceSetup brings up the served path: a journal directory, the
// service, its listener, and a 200 from /readyz.
func serviceSetup(ctx context.Context, _ string) (func(), error) {
	dir, err := runDir("svc")
	if err != nil {
		return nil, err
	}
	s, err := startServer(ctx, service.Config{DataDir: dir}, engine.Config{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return func() { s.stop(); os.RemoveAll(dir) }, nil
}

// runDir makes a scratch directory for run data under the checkout's
// build directory.
func runDir(prefix string) (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", prefix+"-")
}

// observed is what the benchmark saw of one arrival.
type observed struct {
	sentMS   float64 // unix ms
	doneMS   float64
	miss     bool
	cached   bool
	executed bool
	queueMS  float64
	execMS   float64
	submitMS float64
}

// ladder drives one schedule against a served endpoint and observes
// every run's terminal view.
type ladder struct {
	base     string
	arrivals []svcArrival
	reqs     []*svcRequest
	needFull map[int]bool // distinct requests whose report bytes are compared
	t0MS     float64      // the schedule's start, unix ms
	rep      *report

	mu       sync.Mutex
	obs      []observed
	pending  map[string]int // run id -> arrival
	digests  map[int]string // distinct request -> report digest of its first completion
	backlog  int
	sentAll  bool
	refused  int
	gcPause  float64
	compacts float64
}

func unixMS(t time.Time) float64 { return float64(t.UnixMicro()) / 1e3 }

// run sends every arrival on schedule and returns once every run has
// been observed in a terminal state.
func (l *ladder) run(ctx context.Context) error {
	tr := &http.Transport{MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	monitor := client.New(l.base, client.WithHTTPClient(hc))
	users := make([]*client.Client, svcUsers)
	for i := range users {
		users[i] = client.New(l.base, client.WithHTTPClient(hc), client.WithAPIKey(fmt.Sprintf("bench-user-%02d", i)))
	}
	l.obs = make([]observed, len(l.arrivals))
	l.pending = map[string]int{}
	l.digests = map[int]string{}

	before, err := scrape(ctx, monitor)
	if err != nil {
		return err
	}
	start := time.Now().Add(20 * time.Millisecond)
	l.t0MS = unixMS(start)

	// A poller failure stops the schedule; the result would be void.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	due := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < svcConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range due {
				l.submit(ctx, users[l.arrivals[a].user], a)
			}
		}()
	}
	pollDone := make(chan error, 1)
	go func() {
		err := l.poll(ctx, monitor)
		if err != nil {
			cancel()
		}
		pollDone <- err
	}()

	for a, arr := range l.arrivals {
		if wait := time.Until(start.Add(time.Duration(arr.dueMS * 1e6))); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		select {
		case due <- a:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(due)
	wg.Wait()
	l.mu.Lock()
	l.sentAll = true
	l.mu.Unlock()
	if err := <-pollDone; err != nil {
		return err
	}
	after, err := scrape(ctx, monitor)
	if err != nil {
		return err
	}
	l.gcPause = 1e3 * (after["fveval_go_gc_pause_seconds_total"] - before["fveval_go_gc_pause_seconds_total"])
	l.compacts = after["fveval_journal_compactions_total"] - before["fveval_journal_compactions_total"]
	return ctx.Err()
}

// submit sends one arrival and records the outcome of the submission.
func (l *ladder) submit(ctx context.Context, cl *client.Client, a int) {
	sent := time.Now()
	resp, err := cl.Submit(ctx, l.reqs[l.arrivals[a].req].sub)
	got := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	o := &l.obs[a]
	o.sentMS, o.submitMS = unixMS(sent), ms(got.Sub(sent))
	l.rep.attempted++
	var apiErr *api.Error
	switch {
	case errors.As(err, &apiErr) && (apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable):
		o.miss = true
		l.refused++
		l.rep.fail("arrival %d refused: %v", a, err)
	case err != nil:
		o.miss = true
		l.rep.fail("arrival %d: %v", a, err)
	default:
		if resp.Cached {
			o.cached, o.doneMS = true, unixMS(got)
		}
		l.pending[resp.ID] = a
	}
}

// poll lists runs until every submitted run has been seen in a
// terminal state, fetching the full view of those whose report bytes
// are compared. A run evicted before it was observed is a harness
// error: its latency would be unknown.
func (l *ladder) poll(ctx context.Context, cl *client.Client) error {
	deadline := time.Time{}
	for {
		l.mu.Lock()
		finished := l.sentAll && len(l.pending) == 0
		if l.sentAll && deadline.IsZero() {
			deadline = time.Now().Add(60 * time.Second)
		}
		oldest := int64(math.MaxInt64)
		for id := range l.pending {
			oldest = min(oldest, runSeq(id))
		}
		l.mu.Unlock()
		if finished {
			return nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("runs still pending a minute after the last arrival")
		}
		if oldest != math.MaxInt64 {
			if err := l.pollOnce(ctx, cl, oldest); err != nil {
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func runSeq(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "run-"), 10, 64)
	return n
}

func (l *ladder) pollOnce(ctx context.Context, cl *client.Client, oldest int64) error {
	var views []api.RunView
	q := api.ListRunsQuery{Limit: api.MaxListLimit, Cursor: fmt.Sprintf("run-%06d", oldest-1)}
	for {
		page, err := cl.Runs(ctx, q)
		if err != nil {
			return err
		}
		views = append(views, page.Runs...)
		if page.NextCursor == "" {
			break
		}
		q.Cursor = page.NextCursor
	}
	listed := map[string]bool{}
	backlog, newest := 0, int64(0)
	var terminal []api.RunView
	for _, v := range views {
		listed[v.ID] = true
		newest = max(newest, runSeq(v.ID))
		if api.Terminal(v.Status) {
			terminal = append(terminal, v)
		} else {
			backlog++
		}
	}
	l.mu.Lock()
	l.backlog = max(l.backlog, backlog)
	type fetch struct {
		id  string
		req int
	}
	var full []fetch
	for _, v := range terminal {
		a, ok := l.pending[v.ID]
		if !ok {
			continue
		}
		delete(l.pending, v.ID)
		o := &l.obs[a]
		if v.Status != api.StateDone {
			o.miss = true
			l.rep.fail("run %s ended %s: %s", v.ID, v.Status, v.Error)
			continue
		}
		if !o.cached {
			o.doneMS = float64(v.FinishedMS) + 0.5 // the server stamps whole milliseconds
		}
		if v.StartedMS > 0 {
			o.executed = true
			o.queueMS = float64(v.StartedMS - v.CreatedMS)
			o.execMS = float64(v.FinishedMS - v.StartedMS)
		}
		if r := l.arrivals[a].req; l.needFull[r] {
			full = append(full, fetch{v.ID, r})
		}
	}
	// A run submitted while the list was in flight may sit below the
	// cursor; only runs inside the listed range can be judged evicted.
	for id := range l.pending {
		if seq := runSeq(id); seq >= oldest && seq < newest && !listed[id] {
			l.mu.Unlock()
			return fmt.Errorf("run %s was evicted before its terminal view was observed", id)
		}
	}
	l.mu.Unlock()

	for _, f := range full {
		view, err := cl.Get(ctx, f.id)
		if err != nil {
			return fmt.Errorf("fetch %s: %w", f.id, err)
		}
		l.compareReport(view, f.req)
	}
	return nil
}

// compareReport checks a finished run's report bytes against the first
// completion of the same request.
func (l *ladder) compareReport(view api.RunView, req int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if view.Run == nil || view.Run.Report == nil {
		l.rep.mismatch("run %s is done but carries no report", view.ID)
		return
	}
	d, err := reportDigest(view.Run.Report)
	if err != nil {
		l.rep.mismatch("run %s: %v", view.ID, err)
		return
	}
	if first, ok := l.digests[req]; !ok {
		l.digests[req] = d
	} else if first != d {
		l.rep.mismatch("run %s returned report %s, the request's first completion returned %s", view.ID, d, first)
	}
}

// scrape reads the unlabelled samples of the /metrics exposition.
func scrape(ctx context.Context, cl *client.Client) (map[string]float64, error) {
	text, err := cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// svcDrain is the part of the budget left for the last runs to finish.
const svcDrain = 1500 * time.Millisecond

// ladderSize sizes the schedule to the budget: warmShare percent of it
// warms up at the first rate, and after the drain reserve every rate
// gets the same number of arrivals.
func ladderSize(budget time.Duration) (warm, perRate int) {
	warmSecs := budget.Seconds() * warmShare / 100
	var secsPerArrival float64
	for _, r := range svcRates {
		secsPerArrival += 1 / r
	}
	left := budget.Seconds() - warmSecs - svcDrain.Seconds()
	return int(warmSecs * svcRates[0]), max(int(left/secsPerArrival), 40)
}

// runService measures the open loop.
func runService(ctx context.Context, c config) (*report, error) {
	rep := newReport()
	rep.offPath = []string{"dist."}
	// The ladder cannot pause for set-up samples: half are taken before
	// it and the rest after.
	su := newSetups(c)
	for i := 0; su != nil && i < setupReps/2; i++ {
		if err := su.take(ctx); err != nil {
			return nil, err
		}
	}

	tasks, err := svcTasks()
	if err != nil {
		return nil, err
	}
	warm, perRate := ladderSize(c.seconds)
	arrivals, reqs := schedule(c.seed, warm, perRate, tasks)
	spots, repeats := checks(c.seed, reqs, tasks)
	needFull := map[int]bool{}
	for _, i := range append(spots, repeats...) {
		needFull[i] = true
	}
	dir, err := runDir("svc")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(ctx, service.Config{DataDir: dir}, engine.Config{})
	if err != nil {
		return nil, err
	}
	l := &ladder{base: s.url, arrivals: arrivals, reqs: reqs, needFull: needFull, rep: rep}
	rss := sampleRSS()
	err = l.run(ctx)
	s.stop()
	if err == nil {
		err = rss.finish(rep)
	}
	if err != nil {
		return nil, err
	}

	phases := make([]phase, len(svcRates))
	// The gated latency leaves out result-cache hits: their share
	// follows from the assumed repeat share, and the median of a pool
	// of fast hits and slower executions moves with that share.
	var gated, queue, exec, submit, late []float64
	var sumLat, sumQueue, sumExec, sumSubmit float64 // executed runs at the gated rates
	cached, accepted := 0, 0
	for a, arr := range arrivals {
		if arr.phase < 0 {
			continue
		}
		o := l.obs[a]
		ph := &phases[arr.phase]
		ph.Rate = svcRates[arr.phase]
		in := arrival{Due: l.t0MS + arr.dueMS, Sent: o.sentMS, Done: o.doneMS, Miss: o.miss}
		ph.Arrivals = append(ph.Arrivals, in)
		submit = append(submit, o.submitMS)
		late = append(late, in.lateness())
		if !o.miss {
			accepted++
		}
		if o.cached {
			cached++
		} else if arr.phase < svcGated {
			gated = append(gated, in.latency())
		}
		if o.executed {
			queue = append(queue, o.queueMS)
			exec = append(exec, o.execMS)
			if arr.phase < svcGated {
				sumLat += in.latency()
				sumQueue += o.queueMS
				sumExec += o.execMS
				sumSubmit += o.submitMS
			}
		}
	}
	rep.dist("lat_p50_ms", "ms", gated).note = fmt.Sprintf("due time to terminal state, result-cache hits left out, rates %v pooled", svcRates[:svcGated])
	for _, ph := range phases {
		lat := latencies(ph.Arrivals)
		rep.dist(fmt.Sprintf("lat_p50_ms.r%g", ph.Rate), "ms", lat)
		rep.set(fmt.Sprintf("svc.lat_p95_ms.r%g", ph.Rate), "ms", percentile(lat, 0.95)).note =
			fmt.Sprintf("n=%d, not gated", len(lat))
	}
	rep.set("svc.max_rate_rps", "1/s", maxRate(phases, 0.95, svcLimitMS)).note =
		fmt.Sprintf("highest rate with p95 <= %d ms, no misses, no growing backlog", svcLimitMS)

	if err := checkSpots(ctx, rep, l, spots, c); err != nil {
		return nil, err
	}
	if !c.trace {
		return rep, su.finish(ctx, rep)
	}

	rep.set("svc.submit_ms.p50", "ms", percentile(submit, 0.5))
	rep.set("svc.submit_ms.p95", "ms", percentile(submit, 0.95))
	rep.set("svc.queue_wait_ms.p50", "ms", percentile(queue, 0.5))
	rep.set("svc.queue_wait_ms.p95", "ms", percentile(queue, 0.95))
	rep.set("svc.exec_ms.p50", "ms", percentile(exec, 0.5))
	rep.set("svc.exec_ms.p95", "ms", percentile(exec, 0.95))
	rep.set("svc.submit_pct", "%", 100*sumSubmit/sumLat).note = "share of executed runs' latency, gated rates"
	rep.set("svc.queue_wait_pct", "%", 100*sumQueue/sumLat).note = "share of executed runs' latency, gated rates"
	rep.set("svc.exec_pct", "%", 100*sumExec/sumLat).note = "share of executed runs' latency, gated rates"
	rep.set("svc.gen_late_ms.p95", "ms", percentile(late, 0.95))
	rep.set("svc.gen_late_ms.max", "ms", percentile(late, 1))
	rep.set("svc.cache_hit_ratio", "ratio", ratio(int64(cached), int64(accepted))).note =
		fmt.Sprintf("set by the assumed repeat share %g and the request space, not by measured traffic", svcRepeatShare)
	rep.set("svc.refused", "count", float64(l.refused))
	rep.set("svc.backlog_max", "count", float64(l.backlog))
	rep.set("svc.journal_compactions", "count", l.compacts).note = "whole ladder, from /metrics"
	rep.set("svc.gc_pause_ms", "ms", l.gcPause).note = "whole ladder, from /metrics"
	return rep, nil
}

// checkSpots recomputes the spot-checked requests on a local engine —
// the same sequence, at the default worker count — and compares each
// report with the service's; with --trace 1 it also measures the
// engine and traces the sequence for the per-layer metrics, which so
// describe the served mix.
func checkSpots(ctx context.Context, rep *report, l *ladder, spots []int, c config) error {
	var reqs []task.Request
	var want []string
	for _, i := range spots {
		d, ok := l.digests[i]
		if !ok {
			rep.note("spot-checked request %d never completed", i)
			continue
		}
		reqs = append(reqs, l.reqs[i].sub.Request)
		want = append(want, d)
	}
	expect := func(i int) string { return want[i] }
	multi := []engineRun{evaluate(ctx, rep, reqs, 0, expect)}
	if !c.trace {
		return nil
	}
	single, err := perLayer(ctx, rep, reqs, expect, c.traceOut)
	if err != nil {
		return err
	}
	multi = append(multi, evaluate(ctx, rep, reqs, 0, expect), evaluate(ctx, rep, reqs, 0, expect))
	reportEngine(rep, multi, single)
	return nil
}
