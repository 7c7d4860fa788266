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
//	fveval -table 2 -cache=false            # disable every memo
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
	"os"

	"fveval/internal/engine"
	"fveval/internal/task"
)

func main() {
	taskName := flag.String("task", "", "registry task to run (see -list)")
	list := flag.Bool("list", false, "list the task registry and exit")
	jsonOut := flag.Bool("json", false, "emit the unified run JSON instead of the rendered table")
	table := flag.Int("table", 0, "table number to regenerate (1-6)")
	figure := flag.Int("figure", 0, "figure number to regenerate (2, 3, 4, 6)")
	all := flag.Bool("all", false, "run every table and figure")
	limit := flag.Int("limit", 0, "truncate instance lists (0 = full size)")
	count := flag.Int("count", 0, "NL2SVA-Machine dataset size (0 = task default, 300)")
	samples := flag.Int("samples", 5, "samples per instance for pass@k runs")
	workers := flag.Int("workers", 0, "evaluation parallelism (0 = GOMAXPROCS)")
	cache := flag.Bool("cache", true, "memoize equivalence checks and judgments across the run (false disables every memo)")
	maxBound := flag.Int("maxbound", 0, "cap for the formal backend's bound ramp: lasso bound for equivalence, BMC depth for model checking (0 = defaults, 16 each)")
	budget := flag.Int64("budget", 0, "SAT conflict budget per formal query (0 = default 200000)")
	simPatterns := flag.Int("simpatterns", 128, "bit-parallel simulation patterns the refute-before-solve prefilter evaluates per formal query (rounded up to 64-lane rounds; 0 disables the prefilter)")
	flag.Parse()

	if *list {
		printRegistry()
		return
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
		fmt.Fprintln(os.Stderr, "fveval:", err)
		os.Exit(2)
	}
	eng := task.NewEngine(cfg)
	if err := run(eng, *taskName, *table, *figure, *all, *count, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "fveval:", err)
		os.Exit(1)
	}
	if st := eng.CacheStats(); st.Hits+st.Misses > 0 {
		fmt.Fprintln(os.Stderr, st)
	}
	if fs := eng.FormalStats(); fs.Queries > 0 {
		fmt.Fprintln(os.Stderr, fs)
		fmt.Fprintln(os.Stderr, fs.Sim)
	}
}

func printRegistry() {
	fmt.Printf("%-24s %-8s %-8s %s\n", "Task", "Paper", "Kind", "Title")
	for _, s := range task.Tasks() {
		paper := ""
		switch {
		case s.Table > 0:
			paper = fmt.Sprintf("table %d", s.Table)
		case s.Figure > 0:
			paper = fmt.Sprintf("fig. %d", s.Figure)
		}
		fmt.Printf("%-24s %-8s %-8s %s\n", s.Name, paper, s.Kind, s.Title)
	}
}

func run(eng *task.Engine, taskName string, table, figure int, all bool, count int, jsonOut bool) error {
	if taskName != "" {
		return runTask(eng, taskName, count, jsonOut, true)
	}
	if all {
		// In -all mode -count applies only to the tasks that take it.
		for _, t := range []int{6, 1, 2, 3, 4, 5} {
			spec, err := task.ByTable(t)
			if err != nil {
				return err
			}
			if err := runTask(eng, spec.Name, count, jsonOut, false); err != nil {
				return err
			}
		}
		for _, f := range []int{2, 3, 4, 6} {
			spec, err := task.ByFigure(f)
			if err != nil {
				return err
			}
			if err := runTask(eng, spec.Name, count, jsonOut, false); err != nil {
				return err
			}
		}
		return nil
	}
	if table > 0 {
		spec, err := task.ByTable(table)
		if err != nil {
			return err
		}
		return runTask(eng, spec.Name, count, jsonOut, true)
	}
	if figure > 0 {
		spec, err := task.ByFigure(figure)
		if err != nil {
			return err
		}
		return runTask(eng, spec.Name, count, jsonOut, true)
	}
	flag.Usage()
	return nil
}

// runTask executes one registry task on the shared engine and prints
// either the paper-layout rendering or the unified run JSON. When the
// task was named explicitly, an inapplicable -count is an error (the
// registry contract: unaccepted overrides are rejected, not ignored).
func runTask(eng *task.Engine, name string, count int, jsonOut, explicit bool) error {
	spec, err := task.Lookup(name)
	if err != nil {
		return err
	}
	acceptsCount := false
	for _, f := range spec.Accepts {
		if f == "count" {
			acceptsCount = true
		}
	}
	var p task.Params
	if count > 0 {
		if !acceptsCount {
			if explicit {
				return fmt.Errorf("task %s does not accept -count", spec.Name)
			}
		} else {
			p.Count = count
		}
	}
	run, err := eng.Run(context.Background(), task.Request{Task: spec.Name, Params: p})
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(run)
	}
	fmt.Println(run.Report.Render())
	return nil
}
