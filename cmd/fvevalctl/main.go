// Command fvevalctl is the operator CLI for the FVEval service tier.
// A distributed run has one coordinator (internal/dist), which splits
// a registry task into shard slices, fans them out across a worker
// fleet, and merges the partial reports into a report byte-identical
// to an unsharded run. fvevalctl starts it two ways: `run` coordinates
// in-process over a static -workers fleet or -local loopback engines,
// and `submit -distributed` has a fvevald coordinator drive it over
// its registered fleet, with shard checkpoints and crash resume. The
// other commands drive fvevald over the v1 API through
// internal/service/client.
//
// Usage:
//
//	fvevalctl tasks                                             # list the registry
//	fvevalctl run -task table2 -workers http://a:8080,http://b:8080
//	fvevalctl run -task nl2sva-human -local 4                   # 4 in-process engines
//	fvevalctl submit -to http://coord:8080 -task table1         # queue a run, print its id
//	fvevalctl submit -to http://coord:8080 -task table2 -distributed -follow
//	fvevalctl report -to http://coord:8080 run-000001           # fetch a finished run's payload
//	fvevalctl workers -to http://coord:8080                     # live registered fleet
//	fvevalctl metrics -to http://coord:8080                     # scrape /metrics
//	fvevalctl submit -to http://coord:8080 -task table1 -trace t.json -follow
//	fvevalctl trace -to http://coord:8080 -o t.json run-000001  # Perfetto export
//
// Tracing: `run -trace file.json` records spans locally and writes
// Chrome trace-event JSON (load it at https://ui.perfetto.dev).
// `submit -trace file.json` asks the service to record; with -follow
// the trace is fetched and converted when the run lands, and either
// way `fvevalctl trace` can export it later while the run is retained.
//
// -task accepts registry names plus tableN / figureN aliases. Worker
// failures are retried on the remaining fleet (-attempts per shard);
// a worker that keeps failing is benched for the rest of the run.
// Each command takes only its own flags; an unknown or malformed flag
// exits 2, a failed command exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/fault"
	"fveval/internal/obs"
	"fveval/internal/service/api"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tasks":
		printRegistry()
	case "run":
		err = runCmd(os.Args[2:])
	case "submit":
		err = submitCmd(os.Args[2:])
	case "report":
		err = reportCmd(os.Args[2:])
	case "workers":
		err = workersCmd(os.Args[2:])
	case "metrics":
		err = metricsCmd(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fvevalctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fvevalctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fvevalctl tasks                    list the task registry
  fvevalctl run -task <name> ...     coordinate a run across a worker fleet
  fvevalctl submit -to <url> ...     submit a run to a fvevald service
  fvevalctl report -to <url> <id>    print a finished run's payload
  fvevalctl workers -to <url>        list the registered worker fleet
  fvevalctl metrics -to <url>        scrape the service /metrics
  fvevalctl trace -to <url> <id>     export a traced run (Chrome trace-event JSON)`)
	printFlags("request flags (run and submit):", func(fs *flag.FlagSet) { requestFlags(fs, &requestConfig{}) })
	printFlags("run flags:", func(fs *flag.FlagSet) { coordinatorFlags(fs, &runConfig{}) })
	printFlags("submit flags:", func(fs *flag.FlagSet) { submitFlags(fs, &submitConfig{}) })
}

// printFlags prints one flag set's defaults under a heading.
func printFlags(title string, register func(*flag.FlagSet)) {
	fs := flag.NewFlagSet(title, flag.ContinueOnError)
	register(fs)
	fs.SetOutput(os.Stderr)
	fmt.Fprintln(os.Stderr, title)
	fs.PrintDefaults()
}

func printRegistry() {
	fmt.Printf("%-24s %-8s %-8s %-9s %s\n", "Task", "Paper", "Kind", "Sharded", "Title")
	for _, s := range task.Tasks() {
		paper := ""
		switch {
		case s.Table > 0:
			paper = fmt.Sprintf("table %d", s.Table)
		case s.Figure > 0:
			paper = fmt.Sprintf("fig. %d", s.Figure)
		}
		sharded := "yes"
		if !s.Shardable() {
			sharded = "no"
		}
		fmt.Printf("%-24s %-8s %-8s %-9s %s\n", s.Name, paper, s.Kind, sharded, s.Title)
	}
}

// requestConfig collects the flags that shape the request itself;
// run and submit both read them.
type requestConfig struct {
	taskName string
	deadline time.Duration
	jsonOut  bool
	verbose  bool
	traceOut string
	traceCap int

	limit    int
	count    int
	samples  int
	parallel int
	cache    bool
	maxBound int
	budget   int64
}

func requestFlags(fs *flag.FlagSet, c *requestConfig) {
	fs.StringVar(&c.taskName, "task", "", "registry task to run (name, or tableN / figureN alias)")
	fs.DurationVar(&c.deadline, "timeout", 0, "end-to-end run deadline (0 = none)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the run as JSON (run adds fleet metadata)")
	fs.BoolVar(&c.verbose, "v", false, "stream progress to stderr")
	fs.StringVar(&c.traceOut, "trace", "", "record a run trace and write Chrome trace-event JSON here")
	fs.IntVar(&c.traceCap, "trace-cap", 0, "completed-span ring capacity for -trace (0 = 1M client-side, server default on submit)")
	fs.IntVar(&c.limit, "limit", 0, "truncate instance lists (0 = full size)")
	fs.IntVar(&c.count, "count", 0, "NL2SVA-Machine dataset size (0 = task default)")
	fs.IntVar(&c.samples, "samples", 0, "samples per instance for pass@k runs (0 = paper default)")
	fs.IntVar(&c.parallel, "j", 0, "per-worker evaluation parallelism (0 = worker default)")
	fs.BoolVar(&c.cache, "cache", true, "memoize equivalence checks and judgments within each worker (false disables both)")
	fs.IntVar(&c.maxBound, "maxbound", 0, "cap for the formal backend's bound ramp (0 = defaults)")
	fs.Int64Var(&c.budget, "budget", 0, "SAT conflict budget per formal query (0 = default)")
}

// runConfig adds the coordinator flags that only run reads: the fleet
// and the shard retry policy.
type runConfig struct {
	requestConfig
	workers  string
	local    int
	shards   int
	attempts int
	timeout  time.Duration
	hedge    bool
	backoff  time.Duration
	backCap  time.Duration
	seed     int64
	faults   string
}

func coordinatorFlags(fs *flag.FlagSet, c *runConfig) {
	fs.StringVar(&c.workers, "workers", "", "comma-separated fvevald worker URLs (http://host:port,...)")
	fs.IntVar(&c.local, "local", 0, "spin N in-process loopback engines instead of remote workers (0 = NumCPU when -workers is empty)")
	fs.IntVar(&c.shards, "shards", 0, "shard count override (0 = one per worker)")
	fs.IntVar(&c.attempts, "attempts", 0, "max attempts per shard before the run fails (0 = 3)")
	fs.DurationVar(&c.timeout, "shard-timeout", 0, "per-attempt deadline; an expired shard is reassigned (0 = none)")
	fs.BoolVar(&c.hedge, "hedge", false, "speculatively re-dispatch the last straggler shard to an idle worker")
	fs.DurationVar(&c.backoff, "backoff", 0, "base shard retry backoff, doubled per attempt with full jitter (0 = 50ms)")
	fs.DurationVar(&c.backCap, "backoff-cap", 0, "shard retry backoff ceiling (0 = 2s)")
	fs.Int64Var(&c.seed, "seed", 0, "deterministic seed for retry jitter and hedge timing (0 = 1)")
	fs.StringVar(&c.faults, "faults", "", "client-side fault-injection plan (requires a -tags faultinject build)")
}

// submitConfig adds the flags that only submit reads: the service to
// queue on and the submission envelope.
type submitConfig struct {
	requestConfig
	to          string
	apiKey      string
	distributed bool
	priority    int
	follow      bool
}

func submitFlags(fs *flag.FlagSet, c *submitConfig) {
	fs.StringVar(&c.to, "to", "", "fvevald base URL (required)")
	fs.StringVar(&c.apiKey, "api-key", "", "X-API-Key admission identity")
	fs.BoolVar(&c.distributed, "distributed", false, "fan the run across the service's registered worker fleet")
	fs.IntVar(&c.priority, "priority", 0, "admission priority 0..9 (higher runs first)")
	fs.BoolVar(&c.follow, "follow", false, "wait for the run and print its report")
}

// aliasPattern resolves tableN / figN / figureN task aliases.
var aliasPattern = regexp.MustCompile(`^(table|fig|figure)(\d+)$`)

func resolveTask(name string) (*task.Spec, error) {
	if m := aliasPattern.FindStringSubmatch(strings.ToLower(name)); m != nil {
		n, err := strconv.Atoi(m[2])
		if err == nil {
			if m[1] == "table" {
				return task.ByTable(n)
			}
			return task.ByFigure(n)
		}
	}
	return task.Lookup(name)
}

// buildRequest resolves the task and option flags into a request.
// Parameters the task does not accept are left to Request.Validate,
// which the coordinator and the service both run before any work.
func buildRequest(c *requestConfig) (task.Request, error) {
	if c.taskName == "" {
		return task.Request{}, fmt.Errorf("missing -task (see fvevalctl tasks)")
	}
	spec, err := resolveTask(c.taskName)
	if err != nil {
		return task.Request{}, err
	}
	return task.Request{
		Task:   spec.Name,
		Params: task.Params{Count: c.count},
		Options: engine.Config{
			Limit:    c.limit,
			Samples:  c.samples,
			Budget:   c.budget,
			MaxBound: c.maxBound,
			Workers:  c.parallel,
			NoCache:  !c.cache,
		},
	}, nil
}

func runCmd(args []string) error {
	var c runConfig
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	requestFlags(fs, &c.requestConfig)
	coordinatorFlags(fs, &c)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, no error comes back
	req, err := buildRequest(&c.requestConfig)
	if err != nil {
		return err
	}
	runners, err := buildFleet(&c)
	if err != nil {
		return err
	}

	if err := activateFaults(c.faults); err != nil {
		return err
	}
	opts := dist.Options{
		Shards:       c.shards,
		MaxAttempts:  c.attempts,
		ShardTimeout: c.timeout,
		Hedge:        c.hedge,
		BackoffBase:  c.backoff,
		BackoffCap:   c.backCap,
		Seed:         c.seed,
	}
	if c.verbose {
		opts.Progress = func(ev dist.Event) {
			switch ev.Type {
			case dist.EventJob:
				fmt.Fprintf(os.Stderr, "fvevalctl: %s shard %s job %d/%d (%s) %s %dms\n",
					ev.Worker, ev.Shard, ev.Job.Done, ev.Job.Total, ev.Job.Instance, ev.Job.Kind, ev.Job.WallMS)
			case dist.EventShardRetry, dist.EventWorkerDown:
				fmt.Fprintf(os.Stderr, "fvevalctl: %s %s shard %s: %s\n", ev.Type, ev.Worker, ev.Shard, ev.Err)
			default:
				fmt.Fprintf(os.Stderr, "fvevalctl: %s %s shard %s (%d/%d shards)\n",
					ev.Type, ev.Worker, ev.Shard, ev.Done, ev.Total)
			}
		}
	}
	coord, err := dist.New(runners, opts)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if c.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.deadline)
		defer cancel()
	}
	var rec *obs.Recorder
	var root *obs.Span
	if c.traceOut != "" {
		// A one-shot CLI coordinator has no reason to keep the service's
		// tight ring default: heavy tables (deep SAT ramps) emit tens of
		// thousands of spans, and dropping them would evict the tree's
		// roots. The cap still exists as a backstop against runaway runs.
		traceCap := c.traceCap
		if traceCap == 0 {
			traceCap = 1 << 20
		}
		rec = obs.NewRecorder(traceCap)
		root = rec.Start("run", 0)
		root.SetStr("task", req.Task)
		ctx = obs.ContextWithSpan(obs.NewContext(ctx, rec), root)
	}
	res, err := coord.Run(ctx, req)
	if err != nil {
		return err
	}
	if rec != nil {
		root.End()
		spans, dropped := rec.Snapshot()
		if err := writeChromeTrace(c.traceOut, spans, dropped); err != nil {
			return err
		}
	}
	if c.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Println(res.Run.Report.Render())
	fmt.Fprintf(os.Stderr, "fvevalctl: %d shards over %d workers, %d attempts (%d retried), %d jobs, slowest shard %dms\n",
		res.Shards, res.Workers, res.Attempts, res.Retries, res.Run.Stats.Jobs, res.Run.Stats.WallMS)
	return nil
}

// activateFaults arms a client-side fault-injection plan for the
// in-process coordinator seams (dist.dispatch, dist.response, and the
// engine points of -local loopback workers). Gated on the faultinject
// build tag, like the server's -faults flag and FVEVAL_FAULTS.
func activateFaults(spec string) error {
	if spec == "" {
		return nil
	}
	if !fault.BuildEnabled {
		return fmt.Errorf("-faults requires a binary built with -tags faultinject")
	}
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		return err
	}
	if err := fault.Activate(plan); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fvevalctl: fault injection active: %s\n", fault.Describe())
	return nil
}

// buildFleet resolves -workers / -local into runners.
func buildFleet(c *runConfig) ([]dist.Runner, error) {
	if c.local < 0 {
		return nil, fmt.Errorf("-local %d out of range", c.local)
	}
	if c.workers != "" && c.local > 0 {
		return nil, fmt.Errorf("-workers and -local are mutually exclusive")
	}
	if c.workers != "" {
		var runners []dist.Runner
		for _, u := range strings.Split(c.workers, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("worker %q: want an http(s) URL", u)
			}
			runners = append(runners, dist.NewHTTPRunner(u))
		}
		if len(runners) == 0 {
			return nil, fmt.Errorf("-workers lists no URLs")
		}
		return runners, nil
	}
	n := c.local
	if n == 0 {
		n = runtime.NumCPU()
	}
	return dist.Loopback(n, engine.Config{}), nil
}

// submitCmd queues a run on a fvevald service. Without -follow it
// prints the run id and exits; with -follow it streams progress and
// prints the finished report.
func submitCmd(args []string) error {
	var c submitConfig
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	requestFlags(fs, &c.requestConfig)
	submitFlags(fs, &c)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, no error comes back
	if c.to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	req, err := buildRequest(&c.requestConfig)
	if err != nil {
		return err
	}
	if c.traceOut != "" {
		req.Trace = &obs.TraceContext{Cap: c.traceCap}
	}
	cl := newClient(c.to, c.apiKey)
	sub := api.Submission{Request: req, Distributed: c.distributed, Priority: c.priority, TimeoutMS: c.deadline.Milliseconds()}

	if !c.follow {
		resp, err := cl.Submit(context.Background(), sub)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fvevalctl: %s %s (position %d, cached %v)\n", resp.ID, resp.Status, resp.Position, resp.Cached)
		if c.traceOut != "" {
			fmt.Fprintf(os.Stderr, "fvevalctl: tracing on; export later with: fvevalctl trace -to %s -o %s %s\n",
				c.to, c.traceOut, resp.ID)
		}
		fmt.Println(resp.ID)
		return nil
	}

	var progress func(task.Event)
	if c.verbose {
		progress = func(ev task.Event) {
			fmt.Fprintf(os.Stderr, "fvevalctl: job %d/%d (%s) %s %dms\n", ev.Done, ev.Total, ev.Instance, ev.Kind, ev.WallMS)
		}
	}
	view, err := cl.Run(context.Background(), sub, progress)
	if err != nil {
		return err
	}
	if c.traceOut != "" {
		spans, dropped, err := cl.Trace(context.Background(), view.ID)
		if err != nil {
			return fmt.Errorf("fetch trace for %s: %w", view.ID, err)
		}
		if err := writeChromeTrace(c.traceOut, spans, dropped); err != nil {
			return err
		}
	}
	return printRunView(view, c.jsonOut)
}

// traceCmd exports a traced run: fetch the span dump from the service
// and write it as Chrome trace-event JSON (Perfetto-loadable), or as
// the raw span NDJSON with -raw.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	to := fs.String("to", "", "fvevald base URL (required)")
	apiKey := fs.String("api-key", "", "X-API-Key admission identity")
	out := fs.String("o", "", "output file (default stdout)")
	raw := fs.Bool("raw", false, "emit the raw span NDJSON instead of Chrome trace-event JSON")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, no error comes back
	if *to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fvevalctl trace -to <url> [-o file.json] <run-id>")
	}
	spans, dropped, err := newClient(*to, *apiKey).Trace(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	var data []byte
	if *raw {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return err
			}
		}
		data = buf.Bytes()
	} else {
		if data, err = obs.ChromeTrace(spans); err != nil {
			return err
		}
		data = append(data, '\n')
	}
	if *out == "" || *out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fvevalctl: %s: %d spans (%d dropped) -> %s\n", fs.Arg(0), len(spans), dropped, *out)
	return nil
}

// writeChromeTrace converts completed spans to Chrome trace-event
// JSON and writes the Perfetto-loadable file.
func writeChromeTrace(path string, spans []obs.SpanData, dropped int64) error {
	data, err := obs.ChromeTrace(spans)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fvevalctl: trace: %d spans (%d dropped) -> %s\n", len(spans), dropped, path)
	return nil
}

// reportCmd fetches one run and prints its persisted payload — the
// Run (or Partial) JSON on stdout, status on stderr. The payload is
// byte-stable across server restarts, which is what the smoke tests
// diff.
func reportCmd(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	to := fs.String("to", "", "fvevald base URL (required)")
	apiKey := fs.String("api-key", "", "X-API-Key admission identity")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, no error comes back
	if *to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fvevalctl report -to <url> <run-id>")
	}
	view, err := newClient(*to, *apiKey).Get(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fvevalctl: %s %s", view.ID, view.Status)
	if view.Error != "" {
		fmt.Fprintf(os.Stderr, ": %s", view.Error)
	}
	fmt.Fprintln(os.Stderr)
	return printRunView(view, true)
}

// printRunView emits a terminal run's payload: the rendered report
// (human) or the Run/Partial JSON (machine).
func printRunView(view api.RunView, jsonOut bool) error {
	var payload any
	switch {
	case view.Run != nil:
		payload = view.Run
	case view.Part != nil:
		payload = view.Part
	default:
		return fmt.Errorf("run %s (%s) carries no payload", view.ID, view.Status)
	}
	if !jsonOut && view.Run != nil {
		fmt.Println(view.Run.Report.Render())
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// workersCmd lists the live registered fleet.
func workersCmd(args []string) error {
	fs := flag.NewFlagSet("workers", flag.ExitOnError)
	to := fs.String("to", "", "fvevald base URL (required)")
	jsonOut := fs.Bool("json", false, "emit JSON")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, no error comes back
	if *to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	workers, err := newClient(*to, "").Workers(context.Background())
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(workers)
	}
	fmt.Printf("%-16s %-32s %s\n", "ID", "URL", "Last seen")
	for _, w := range workers {
		fmt.Printf("%-16s %-32s %s\n", w.ID, w.URL, time.UnixMilli(w.LastSeenMS).Format(time.RFC3339))
	}
	return nil
}

// metricsCmd scrapes and prints the service /metrics exposition.
func metricsCmd(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	to := fs.String("to", "", "fvevald base URL (required)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, no error comes back
	if *to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	text, err := newClient(*to, "").Metrics(context.Background())
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func newClient(base, apiKey string) *client.Client {
	var opts []client.Option
	if apiKey != "" {
		opts = append(opts, client.WithAPIKey(apiKey))
	}
	return client.New(base, opts...)
}
