package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	rm "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"fveval/internal/task"
)

// digestsJSON holds the SHA-256 of Report.Encode() for every request
// the offline workloads make, recorded at Workers=1 and Workers=2 on
// the commit that introduced the benchmark. Report bytes do not depend
// on worker count, sharding, caching or tracing, so any difference is
// a wrong answer.
//
//go:embed digests.json
var digestsJSON []byte

var digests = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("bench: digests.json: " + err.Error())
	}
	return m
}()

func reportDigest(r *task.Report) (string, error) {
	data, err := r.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkReport compares a report with the digest it must have; a
// mismatch is a failed operation and a wrong output.
func checkReport(rep *report, name string, r *task.Report, want string) {
	got, err := reportDigest(r)
	if err == nil && got == want {
		return
	}
	if err == nil {
		err = fmt.Errorf("report digest %s, want %s", got, want)
	}
	rep.mismatch("%s: %v", name, err)
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes float64 // heap bytes allocated since process start
	gcCPU      float64 // CPU seconds spent in the garbage collector
}

func readRuntime() rtSample {
	s := []rm.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rm.Read(s)
	return rtSample{allocBytes: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64()}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{allocBytes: a.allocBytes - b.allocBytes, gcCPU: a.gcCPU - b.gcCPU}
}

// rssSampler samples the process's resident set size every 10 ms
// while the measured operations run. Its median is the memory metric
// gated: the process-wide peak (VmHWM) is the extreme of one sample
// path and moves with garbage-collector timing from run to run.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and reports the median resident set as rss_mb
// and the process's peak (VmHWM) as peak_rss_mb.
func (s *rssSampler) finish(rep *report) error {
	close(s.stop)
	<-s.done
	if len(s.mb) == 0 {
		return fmt.Errorf("no resident-set samples")
	}
	rep.dist("rss_mb", "MB", s.mb).note = "resident set sampled every 10 ms while measuring"
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", "MB", peak).note = "VmHWM of the whole run"
	return nil
}

// rssMB reads the current resident set size.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setupReps is how often a run measures set-up; set-up time is the
// median.
const setupReps = 15

// setups measures set-up from process start: it starts this command in
// --setup-only mode, where the child sets the workload up and prints a
// line once its first iteration could begin, and times each child until
// that line. The host's speed shifts every few seconds, and set-ups
// timed back to back all land in one shift, so a run spreads its
// samples over its whole budget, between iterations.
type setups struct {
	workload string
	every    time.Duration
	last     time.Time
	secs     []float64
}

// newSetups returns nil for a traced run: set-up time is an end-to-end
// metric, measured only untraced, and a nil *setups takes no samples.
func newSetups(c config) *setups {
	if c.trace {
		return nil
	}
	return &setups{workload: c.workload, every: c.seconds / setupReps}
}

// take times one set-up child now.
func (s *setups) take(ctx context.Context) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "--workload", s.workload, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("set-up child: %w", err)
	}
	_, readErr := bufio.NewReader(out).ReadString('\n')
	took := time.Since(start)
	io.Copy(io.Discard, out) //nolint:errcheck // the child's remaining output is not needed
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("set-up child: %w", err)
	}
	if readErr != nil {
		return fmt.Errorf("set-up child never reported ready: %w", readErr)
	}
	s.secs = append(s.secs, took.Seconds())
	s.last = time.Now()
	return nil
}

// due takes one sample if the run has moved on by a share of its
// budget since the last one, and none once setupReps are in.
func (s *setups) due(ctx context.Context) error {
	if s == nil || len(s.secs) >= setupReps || time.Since(s.last) < s.every {
		return nil
	}
	return s.take(ctx)
}

// finish tops the samples up to setupReps and reports their median.
func (s *setups) finish(ctx context.Context, rep *report) error {
	for len(s.secs) < setupReps {
		if err := s.take(ctx); err != nil {
			return err
		}
	}
	rep.dist("setup_s", "s", s.secs)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
