// Command fvbench is the FVEval benchmark. It drives the same public
// entry points that fveval, fvevalctl and fvevald serve —
// task.Engine.Run, dist.Coordinator.Run over HTTP workers, and the v1
// HTTP API — over five workloads, checks every output against recorded
// report digests, and prints end-to-end metrics (medians with
// quartiles over repeated iterations) or, with --trace 1, per-layer
// metrics from the spans a traced Workers=1 engine run records. See
// README.md for the workloads and metrics.
//
// Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload nl2sva --seed 1 --seconds 22 --trace 0
//
// Without --workload every workload runs, each in its own child
// process, in both modes.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
}

// workloads lists each workload's set-up and runner, in report order.
// A set-up brings a fresh process to where its first iteration could
// begin and returns the teardown.
var workloads = []struct {
	name  string
	setup func(ctx context.Context, workload string) (func(), error)
	run   func(ctx context.Context, c config) (*report, error)
}{
	{"design2sva", offlineSetup, runOffline},
	{"agr", offlineSetup, runOffline},
	{"nl2sva", offlineSetup, runOffline},
	{"dist-http", distSetup, runDist},
	{"service-open", serviceSetup, runService},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		c       config
		seconds int
		trace   int
		cmp     bool
		setup   bool
	)
	flag.StringVar(&c.workload, "workload", "", "workload to run (default: all, each in a child process, in both modes)")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the generated inputs (the service-open arrival schedule)")
	flag.IntVar(&seconds, "seconds", 0, "measurement budget of one run, in seconds (default: BENCHMARK.json's run_seconds)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics, including a traced run")
	flag.StringVar(&c.traceOut, "trace-out", "", "with --trace 1, write the traced run's spans as Chrome trace JSON to this file")
	flag.BoolVar(&cmp, "compare", false, "compare two files of result lines of one workload: --compare PARENT CHANGE")
	flag.BoolVar(&setup, "setup-only", false, "set the workload up, print a line, tear down and exit (how a run measures set-up time)")
	flag.Parse()
	if seconds < 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "fvbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	c.trace = trace == 1

	if setup {
		for _, w := range workloads {
			if w.name == c.workload {
				teardown, err := w.setup(context.Background(), w.name)
				if err != nil {
					fmt.Fprintf(os.Stderr, "fvbench: %s: %v\n", w.name, err)
					return 2
				}
				fmt.Println("ready") // the parent's set-up timer stops here
				teardown()
				return 0
			}
		}
		fmt.Fprintf(os.Stderr, "fvbench: unknown workload %q\n", c.workload)
		return 2
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fvbench:", err)
		return 2
	}
	if seconds == 0 {
		seconds = spec.RunSeconds
	}
	c.seconds = time.Duration(seconds) * time.Second
	if cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "fvbench: --compare takes two files")
			return 2
		}
		if err := compareFiles(spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "fvbench:", err)
			return 2
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if c.workload == "" {
		return runAll(ctx, c, seconds)
	}
	for _, w := range workloads {
		if w.name != c.workload {
			continue
		}
		rep, err := w.run(ctx, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fvbench: %s: %v\n", c.workload, err)
			return 2
		}
		metrics := spec.EndToEnd
		if c.trace {
			metrics = spec.PerLayer
		}
		line, err := rep.resultLine(metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fvbench: %s: %v\n", c.workload, err)
			return 2
		}
		rep.print(c.workload)
		fmt.Println(string(line))
		if !rep.correct || rep.failed > 0 {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "fvbench: unknown workload %q\n", c.workload)
	return 2
}

// ---- BENCHMARK.json ----------------------------------------------------------

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads the benchmark definition and checks that its
// workloads are the ones this command runs.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	var have, want []string
	for _, w := range s.Workloads {
		have = append(have, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(have, ",") != strings.Join(want, ",") {
		return nil, fmt.Errorf("%s lists workloads %v, this command runs %v", path, have, want)
	}
	if s.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds must be positive", path)
	}
	return &s, nil
}

// ---- reports -----------------------------------------------------------------

// metric is one measured value. A timing taken over repeated samples
// carries its sample count and quartiles.
type metric struct {
	name, unit string
	value      float64
	n          int
	q1, q3     float64
	tail       float64 // highest supported tail percentile (0: none)
	tailValue  float64
	note       string
}

// report is what one workload run measured and checked.
type report struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	notes     []string
	metrics   []*metric
	// offPath lists the name prefixes of per-layer metrics whose layer
	// is not on this workload's path (the distribution layer outside
	// dist-http, the service outside service-open); they read 0.
	offPath []string
}

func newReport() *report { return &report{correct: true} }

// set records a single-valued metric.
func (r *report) set(name, unit string, v float64) *metric {
	m := &metric{name: name, unit: unit, value: v}
	r.metrics = append(r.metrics, m)
	return m
}

// dist records the median of repeated samples with their quartiles
// and, when the sample supports one, a tail percentile.
func (r *report) dist(name, unit string, xs []float64) *metric {
	m := r.set(name, unit, median(xs))
	m.n = len(xs)
	if len(xs) > 1 {
		m.q1, _, m.q3 = quartiles(xs)
	}
	if p := tailLevel(len(xs)); p > 0 {
		m.tail, m.tailValue = p, percentile(xs, p)
	}
	return m
}

// fail counts one failed operation (an error, a refusal, a run that
// did not finish done) and records why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// mismatch records an output with the wrong bytes: a failed operation
// and a wrong output.
func (r *report) mismatch(format string, args ...any) {
	r.fail(format, args...)
	r.correct = false
}

// note records an observation that is not a failure.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) get(name string) *metric {
	for _, m := range r.metrics {
		if m.name == name {
			return m
		}
	}
	return nil
}

// maxProblems caps the problems a run prints; an overloaded service can
// refuse thousands of arrivals.
const maxProblems = 20

// print writes every metric as a readable line, then the problems.
func (r *report) print(workload string) {
	fmt.Printf("%s: %d operations attempted, %d failed, fail_ratio %g\n",
		workload, r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
	for _, m := range r.metrics {
		var extra []string
		if m.n > 0 {
			extra = append(extra, fmt.Sprintf("n=%d", m.n))
		}
		if m.n > 1 {
			extra = append(extra, fmt.Sprintf("q1=%.6g q3=%.6g", m.q1, m.q3))
		}
		if m.tail > 0 {
			extra = append(extra, fmt.Sprintf("p%g=%.6g", 100*m.tail, m.tailValue))
		}
		if m.note != "" {
			extra = append(extra, "("+m.note+")")
		}
		fmt.Printf("  %-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, strings.Join(extra, " "))
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for i, p := range r.problems {
		if i == maxProblems {
			fmt.Printf("  ... and %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Println("  PROBLEM:", p)
	}
}

func (r *report) isOffPath(name string) bool {
	for _, p := range r.offPath {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// resultLine renders the machine-readable result: exactly the listed
// metrics, each of which this run must have measured in its unit.
func (r *report) resultLine(specs []metricSpec) ([]byte, error) {
	out := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueUnit{}}
	for _, s := range specs {
		m := r.get(s.Name)
		if m == nil && r.isOffPath(s.Name) {
			m = &metric{name: s.Name, unit: s.Unit}
		}
		if m == nil {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if m.unit != s.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, defined in %s", s.Name, m.unit, s.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", s.Name, m.value)
		}
		out.Metrics[s.Name] = valueUnit{Value: m.value, Unit: m.unit}
	}
	return json.Marshal(out)
}

// ---- every workload ----------------------------------------------------------

// runAll runs every workload in both modes, each in its own child
// process so peak memory and runtime state stay per workload, and ends
// with one combined result line whose metric names carry the workload.
func runAll(ctx context.Context, c config, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fvbench:", err)
		return 2
	}
	all := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	code := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(c.seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", trace}
			if trace == "1" && c.traceOut != "" {
				args = append(args, "--trace-out", strings.TrimSuffix(c.traceOut, ".json")+"."+w.name+".json")
			}
			line, rc, err := runChild(ctx, self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fvbench: %s: %v\n", w.name, err)
				return 2
			}
			code = max(code, rc)
			if line == nil {
				continue
			}
			all.Correct = all.Correct && line.Correct
			all.Attempted += line.Attempted
			all.Failed += line.Failed
			for name, v := range line.Metrics {
				all.Metrics[w.name+"/"+name] = v
			}
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fvbench:", err)
		return 2
	}
	fmt.Println(string(data))
	return code
}

// runChild runs one workload child, echoing its output, and returns
// its parsed result line (nil when it printed none) and exit code.
func runChild(ctx context.Context, self string, args []string) (*resultLine, int, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	rc := 0
	var exitErr *exec.ExitError
	switch {
	case errors.As(waitErr, &exitErr):
		rc = exitErr.ExitCode()
	case waitErr != nil:
		return nil, 0, waitErr
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if last != "" {
			fmt.Println(last)
		}
		return nil, max(rc, 2), nil
	}
	return &line, rc, nil
}

// ---- comparing two sets of runs ----------------------------------------------

// compareFiles reads two files of result lines from runs of one
// workload (one JSON line per run, other lines ignored) and prints,
// per end-to-end metric, both sides' medians and spreads, the verdict
// against the metric's bound, and — when the files hold the same
// number of runs, line i of each made as a pair — in how many pairs
// the change read better.
func compareFiles(spec *benchSpec, parentPath, changePath string) error {
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %12s %8s %12s %8s %7s  %-10s %s\n", "metric", "parent", "spread", "change", "spread", "bound", "verdict", "better in pairs")
	for _, s := range spec.EndToEnd {
		p, c := parent[s.Name], change[s.Name]
		if len(p) < 2 || len(c) < 2 {
			return fmt.Errorf("metric %s: need at least two runs on each side (have %d and %d)", s.Name, len(p), len(c))
		}
		pairs := "-"
		if len(p) == len(c) {
			better := 0
			for i := range p {
				if (s.Better == "lower" && c[i] < p[i]) || (s.Better != "lower" && c[i] > p[i]) {
					better++
				}
			}
			pairs = fmt.Sprintf("%d/%d", better, len(p))
		}
		fmt.Printf("%-16s %12.6g %7.2f%% %12.6g %7.2f%% %6.0f%%  %-10s %s\n", s.Name,
			median(p), 100*spread(p), median(c), 100*spread(c), 100*s.Bound,
			compare(p, c, s.Bound, s.Better == "lower"), pairs)
	}
	return nil
}

// readRuns collects each metric's values over the result lines of a
// file.
func readRuns(path string) (map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	runs := map[string][]float64{}
	for _, l := range strings.Split(string(data), "\n") {
		var line resultLine
		if !strings.HasPrefix(l, "{") || json.Unmarshal([]byte(l), &line) != nil {
			continue
		}
		for name, v := range line.Metrics {
			runs[name] = append(runs[name], v.Value)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no result lines", path)
	}
	return runs, nil
}
