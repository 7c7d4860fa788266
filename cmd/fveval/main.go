// Command fveval runs the FVEval benchmark end to end: every table and
// figure of the paper regenerates from one invocation, and any entry
// of the task registry can be run by name. All runs share one
// evaluation engine, so duplicate formal equivalence checks are
// solved once per process.
//
// Usage:
//
//	fveval -list                  # show the task registry
//	fveval -task nl2sva-human     # run a task by registry name
//	fveval -task design2sva -json # emit the unified run JSON
//	fveval -table 1               # registry task for Table 1
//	fveval -table 3 -count 300
//	fveval -figure 6
//	fveval -all -limit 20         # everything, truncated for a quick look
//	fveval -table 2 -cache=false            # disable the run-wide memos
//	fveval -table 2 -maxbound 12            # cap the formal bound ramp
//	fveval -table 3 -simpatterns 0          # disable the simulation prefilter
//	fveval -table 5 -simpatterns 256        # more refute-before-solve patterns
//
// fveval evaluates in one process on one engine; cmd/fvevalctl run
// spreads a task across a worker fleet, and its merged report is
// byte-identical to this command's output.
//
// Solver-reuse and ramp statistics from the incremental formal
// backend print to stderr next to the cache statistics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"fveval/internal/engine"
	"fveval/internal/task"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs one fveval invocation on a fresh engine, as one process
// does: rendered tables or run JSON go to stdout, the run-wide
// counters (printCounters) and errors to stderr. It returns the exit
// status: 2 for an invalid configuration, 1 for a failed run.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fveval", flag.ExitOnError) // bad flags exit 2, -h exits 0
	fs.SetOutput(stderr)
	taskName := fs.String("task", "", "registry task to run (see -list)")
	list := fs.Bool("list", false, "list the task registry and exit")
	jsonOut := fs.Bool("json", false, "emit the unified run JSON instead of the rendered table")
	table := fs.Int("table", 0, "table number to regenerate (1-6)")
	figure := fs.Int("figure", 0, "figure number to regenerate (2, 3, 4, 6)")
	all := fs.Bool("all", false, "run every table and figure")
	limit := fs.Int("limit", 0, "truncate instance lists (0 = full size)")
	count := fs.Int("count", 0, "NL2SVA-Machine dataset size (0 = task default, 300)")
	samples := fs.Int("samples", 5, "samples per instance for pass@k runs")
	workers := fs.Int("workers", 0, "evaluation parallelism (0 = GOMAXPROCS)")
	cache := fs.Bool("cache", true, "memoize equivalence checks and judgments across the run (false disables both)")
	maxBound := fs.Int("maxbound", 0, "cap for the formal backend's bound ramp: lasso bound for equivalence, BMC depth for model checking (0 = defaults, 16 each)")
	budget := fs.Int64("budget", 0, "SAT conflict budget per formal query (0 = default 200000)")
	simPatterns := fs.Int("simpatterns", 128, "bit-parallel simulation patterns the refute-before-solve prefilter evaluates per formal query (rounded up to 64-lane rounds; 0 disables the prefilter)")
	fs.Parse(args)

	if *list {
		printRegistry(stdout)
		return 0
	}

	cfg := engine.Config{
		Limit:       *limit,
		Samples:     *samples,
		Budget:      *budget,
		MaxBound:    *maxBound,
		Workers:     *workers,
		NoCache:     !*cache,
		SimPatterns: *simPatterns,
		NoSim:       *simPatterns == 0,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "fveval:", err)
		return 2
	}
	if *count < 0 {
		fmt.Fprintf(stderr, "fveval: negative -count %d\n", *count)
		return 2
	}
	names := allTasks
	var spec *task.Spec
	var err error
	switch {
	case *taskName != "":
		spec, err = task.Lookup(*taskName)
	case *all:
	case *table > 0:
		spec, err = task.ByTable(*table)
	case *figure > 0:
		spec, err = task.ByFigure(*figure)
	default:
		fs.Usage()
		return 0
	}
	if spec != nil {
		names = []string{spec.Name}
	}
	eng := task.NewEngine(cfg)
	for i := 0; err == nil && i < len(names); i++ {
		// In -all mode -count applies only to the tasks that take it.
		err = runTask(eng, stdout, names[i], *count, *jsonOut, spec != nil)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fveval:", err)
		return 1
	}
	printCounters(stderr, eng)
	return 0
}

// allTasks is what -all runs, in print order: Tables 6 and 1–5, then
// Figures 2, 3, 4 and 6.
var allTasks = []string{
	"dataset-stats", "nl2sva-human", "nl2sva-human-passk", "nl2sva-machine", "nl2sva-machine-passk", "design2sva",
	"human-token-lengths", "machine-token-lengths", "design-token-lengths", "bleu-correlation",
}

// printCounters writes the engine's run-wide counters: the
// equivalence-cache line when the cache was consulted, and the formal
// backend's and the simulation prefilter's lines when a formal query
// ran. At one worker every line is deterministic.
func printCounters(w io.Writer, eng *task.Engine) {
	if st := eng.CacheStats(); st.Hits+st.Misses > 0 {
		fmt.Fprintln(w, st)
	}
	if fs := eng.FormalStats(); fs.Queries > 0 {
		fmt.Fprintln(w, fs)
		fmt.Fprintln(w, fs.Sim)
	}
}

func printRegistry(w io.Writer) {
	fmt.Fprintf(w, "%-24s %-8s %-8s %s\n", "Task", "Paper", "Kind", "Title")
	for _, s := range task.Tasks() {
		paper := ""
		switch {
		case s.Table > 0:
			paper = fmt.Sprintf("table %d", s.Table)
		case s.Figure > 0:
			paper = fmt.Sprintf("fig. %d", s.Figure)
		}
		fmt.Fprintf(w, "%-24s %-8s %-8s %s\n", s.Name, paper, s.Kind, s.Title)
	}
}

// runTask executes one registry task on the shared engine and prints
// either the paper-layout rendering or the unified run JSON. When the
// task was named explicitly, an inapplicable -count is an error (the
// registry contract: unaccepted overrides are rejected, not ignored).
func runTask(eng *task.Engine, w io.Writer, name string, count int, jsonOut, explicit bool) error {
	spec, err := task.Lookup(name)
	if err != nil {
		return err
	}
	var p task.Params
	switch {
	case count == 0:
	case slices.Contains(spec.Accepts, "count"):
		p.Count = count
	case explicit:
		return fmt.Errorf("task %s does not accept -count", spec.Name)
	}
	run, err := eng.Run(context.Background(), task.Request{Task: spec.Name, Params: p})
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(run)
	}
	fmt.Fprintln(w, run.Report.Render())
	return nil
}
