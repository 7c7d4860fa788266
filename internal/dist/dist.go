// Package dist is the distributed-run layer on top of the task
// registry: a Coordinator splits any registry request into shard
// slices via the planner (PlanShards), dispatches them across a fleet
// of workers behind one Runner interface — in-process loopback engines
// or remote fvevald endpoints — streams merged per-job progress,
// retries failed or timed-out shards with capped exponential backoff,
// trips a per-worker circuit breaker instead of permanently benching
// flaky endpoints, optionally hedges the straggler shard, and
// deterministically recombines the partial reports (task.MergeRuns)
// into a single Report whose Render and Encode output is
// byte-identical to an unsharded single-engine run.
//
// The merge invariant rests on three facts: judgments are
// deterministic per (instance, model, sample) cell, shards carry slot
// provenance (engine.Grid), and aggregation folds the reassembled
// lattice through exactly the code path a local run uses. Worker
// count, shard count, dispatch order, retries, hedges, and checkpoint
// restores therefore never change a byte of output — only wall-clock
// time.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fveval/internal/engine"
	"fveval/internal/fault"
	"fveval/internal/obs"
	"fveval/internal/task"
)

// Options tunes a coordinator.
type Options struct {
	// Shards overrides the planned slice count (0 = one shard per
	// runner for shardable tasks). More shards than runners gives
	// finer-grained rebalancing when workers are uneven.
	Shards int
	// MaxAttempts bounds how often one shard may be attempted before
	// the whole run fails (0 = 3). Hedge attempts don't count.
	MaxAttempts int
	// RunnerFailureLimit trips a worker's circuit breaker after this
	// many consecutive failed attempts (0 = 2). A tripped worker sits
	// out a cooldown (doubling per consecutive trip), then probes
	// half-open: one success closes the breaker, one failure re-trips.
	RunnerFailureLimit int
	// BreakerCooldown is the first trip's open interval (0 = 500ms).
	BreakerCooldown time.Duration
	// BackoffBase is the first retry's backoff ceiling; each further
	// attempt doubles it up to BackoffCap, and the actual delay is
	// drawn uniformly from [0, ceiling) — full jitter (0 = 50ms).
	BackoffBase time.Duration
	// BackoffCap caps the backoff ceiling (0 = 2s). A Retry-After hint
	// carried by the failure (api.Error) overrides a shorter draw.
	BackoffCap time.Duration
	// Seed makes retry jitter and hedge decisions reproducible; runs
	// with the same seed and arrival order draw the same delays (0 = 1).
	Seed int64
	// Hedge enables straggler re-dispatch: when exactly one shard
	// remains in flight and its attempt has outlived the hedgeQuantile
	// of completed shard durations (floored at hedgeMinDelay), the
	// shard is speculatively re-dispatched to an idle worker; first
	// result wins and the loser is cancelled. Hedging refutes only on
	// wall-clock, never on bytes.
	Hedge bool
	// ShardTimeout bounds one shard attempt; an expired attempt counts
	// as a failure and the shard is reassigned (0 = no timeout).
	ShardTimeout time.Duration
	// Completed seeds already-finished shards (checkpoint restore):
	// they are merged without being dispatched. Indices refer to the
	// plan this run produces, so the caller must pin Shards to the
	// count the checkpoints were cut against.
	Completed map[int]*task.Partial
	// OnPartial observes each shard's winning partial as it lands
	// (checkpointing hook). Called outside coordinator locks, possibly
	// concurrently for distinct shards; restored shards are not
	// re-announced.
	OnPartial func(shard, total int, p *task.Partial)
	// Progress receives merged coordinator events; calls are
	// serialized across workers and must not block for long.
	Progress func(Event)
}

// Event types.
const (
	// EventShardStart marks a shard attempt beginning on a worker.
	EventShardStart = "shard-start"
	// EventJob forwards one per-job progress event from a shard.
	EventJob = "job"
	// EventShardDone marks a shard's partial landing.
	EventShardDone = "shard-done"
	// EventShardRetry marks a failed attempt being requeued.
	EventShardRetry = "shard-retry"
	// EventShardHedge marks a speculative duplicate dispatch of the
	// straggler shard.
	EventShardHedge = "shard-hedge"
	// EventWorkerDown marks a worker's circuit breaker tripping open.
	EventWorkerDown = "worker-down"
	// EventWorkerUp marks a tripped worker's half-open probe
	// succeeding: the breaker closed and the worker is back.
	EventWorkerUp = "worker-up"
)

// Event is one merged progress notification from the coordinator.
type Event struct {
	Type   string       `json:"type"`
	Worker string       `json:"worker,omitempty"`
	Shard  engine.Shard `json:"shard,omitzero"`
	// Done / Total count completed shards at emission time.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Job is the forwarded per-job event (EventJob only).
	Job *task.Event `json:"job,omitempty"`
	// Err describes the failure (retry and breaker events).
	Err string `json:"err,omitempty"`
}

// Result is one completed distributed run.
type Result struct {
	// Run is the merged run: unified Report plus folded stats.
	Run *task.Run `json:"run"`
	// Shards and Workers describe the plan that produced it.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// Attempts counts shard attempts including retries and hedges;
	// Retries counts the failed attempts that were requeued.
	Attempts int `json:"attempts"`
	Retries  int `json:"retries"`
	// Hedges counts speculative straggler re-dispatches; Restored
	// counts shards seeded from checkpoints instead of dispatched.
	Hedges   int `json:"hedges,omitempty"`
	Restored int `json:"restored,omitempty"`
}

// The hedge threshold is the hedgeQuantile of completed shard
// durations, floored at hedgeMinDelay so millisecond-scale runs don't
// hedge spuriously.
const (
	hedgeQuantile = 0.9
	hedgeMinDelay = 25 * time.Millisecond
)

// retryAfterHinter is implemented by failures that carry an explicit
// server back-pressure hint (api.Error from a 429/503 Retry-After);
// the hint overrides a shorter jittered backoff draw.
type retryAfterHinter interface{ RetryAfterHint() time.Duration }

// Coordinator fans registry requests out across a worker fleet.
type Coordinator struct {
	runners []Runner
	opts    Options
}

// New builds a coordinator over a non-empty fleet.
func New(runners []Runner, opts Options) (*Coordinator, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("dist: no runners")
	}
	if opts.Shards < 0 || opts.MaxAttempts < 0 || opts.RunnerFailureLimit < 0 || opts.ShardTimeout < 0 ||
		opts.BreakerCooldown < 0 || opts.BackoffBase < 0 || opts.BackoffCap < 0 {
		return nil, fmt.Errorf("dist: negative option")
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 3
	}
	if opts.RunnerFailureLimit == 0 {
		opts.RunnerFailureLimit = 2
	}
	if opts.BreakerCooldown == 0 {
		opts.BreakerCooldown = 500 * time.Millisecond
	}
	if opts.BackoffBase == 0 {
		opts.BackoffBase = 50 * time.Millisecond
	}
	if opts.BackoffCap == 0 {
		opts.BackoffCap = 2 * time.Second
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &Coordinator{runners: append([]Runner(nil), runners...), opts: opts}, nil
}

// item is one shard attempt in the dispatch queue.
type item struct {
	shard   int
	attempt int
	// hedge marks a speculative duplicate: its failure neither counts
	// toward the shard's MaxAttempts nor requeues.
	hedge bool
	// notBefore delays dispatch (retry backoff).
	notBefore time.Time
}

// splitmix64 steps the deterministic jitter stream.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// breaker is one worker's circuit state, owned by its goroutine.
type breaker struct {
	failures  int // consecutive, since last success
	trips     int // consecutive trips, since last success
	open      bool
	openUntil time.Time
}

// Run executes one registry request across the fleet and returns the
// merged result. Cancelling ctx aborts every in-flight shard and
// returns ctx.Err(). A shard that fails MaxAttempts times fails the
// run.
func (c *Coordinator) Run(ctx context.Context, req task.Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := task.Lookup(req.Task)
	if err != nil {
		return nil, err
	}
	shards := c.opts.Shards
	switch {
	case !spec.Shardable():
		shards = 1
	case shards == 0:
		shards = len(c.runners)
	}
	plan, err := PlanShards(req, shards)
	if err != nil {
		return nil, err
	}
	n := len(plan.Shards)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu        sync.Mutex
		partials  = make([]*task.Partial, n)
		remaining = n
		attempts  int
		retries   int
		hedges    int
		restored  int
		durations []time.Duration        // completed shard wall times (hedge threshold input)
		started   = make([]time.Time, n) // latest attempt start per shard
		inflight  = make([]map[int]context.CancelFunc, n)
		curAtt    = make([]int, n) // latest chain attempt number per shard
		probeFree = make([]int, n) // half-open probe failures forgiven per shard
		hedged    = make([]bool, n)
		fatal     error
		doneOnce  sync.Once
		done      = make(chan struct{})
		rng       = uint64(c.opts.Seed)
	)
	for i := range inflight {
		inflight[i] = map[int]context.CancelFunc{}
	}

	// Checkpoint restore: seed completed shards straight into the merge
	// set. Indices outside the plan mean the checkpoints were cut
	// against a different shard count — refusing is what keeps resumed
	// output byte-identical instead of subtly mis-merged.
	for i, p := range c.opts.Completed {
		if p == nil {
			continue
		}
		if i < 0 || i >= n {
			return nil, fmt.Errorf("dist: checkpoint for shard %d outside plan of %d shards", i, n)
		}
		partials[i] = p
		remaining--
		restored++
	}

	// Cap 2n: per shard at most one retry-chain item plus one hedge is
	// ever outstanding, so sends below never block.
	queue := make(chan item, 2*n)
	for i := 0; i < n; i++ {
		if partials[i] == nil {
			queue <- item{shard: i, attempt: 1}
		}
	}

	var emitMu sync.Mutex
	emit := func(ev Event) {
		if c.opts.Progress == nil {
			return
		}
		emitMu.Lock()
		c.opts.Progress(ev)
		emitMu.Unlock()
	}

	// backoffDelay draws a full-jitter delay for the given upcoming
	// attempt: uniform in [0, min(base<<(attempt-2), cap)), bumped up
	// to any Retry-After hint the failure carried. Caller holds mu.
	backoffDelay := func(nextAttempt int, cause error) time.Duration {
		ceiling := c.opts.BackoffBase
		for i := 2; i < nextAttempt && ceiling < c.opts.BackoffCap; i++ {
			ceiling *= 2
		}
		if ceiling > c.opts.BackoffCap {
			ceiling = c.opts.BackoffCap
		}
		frac := float64(splitmix64(&rng)>>11) / float64(1<<53)
		delay := time.Duration(frac * float64(ceiling))
		var h retryAfterHinter
		if errors.As(cause, &h) {
			if hint := h.RetryAfterHint(); hint > delay {
				delay = hint
			}
		}
		return delay
	}

	if remaining == 0 {
		// Every shard restored from checkpoints: nothing to dispatch.
		merged, err := task.MergeRuns(partials)
		if err != nil {
			return nil, err
		}
		return &Result{
			Run:    merged,
			Shards: n, Workers: len(c.runners),
			Restored: restored,
		}, nil
	}

	var wg sync.WaitGroup
	for _, r := range c.runners {
		wg.Add(1)
		go func(r Runner) {
			defer wg.Done()
			var br breaker
			for {
				// Open breaker: sit out the cooldown, then the next item
				// this worker takes is its half-open probe.
				if wait := time.Until(br.openUntil); br.open && wait > 0 {
					select {
					case <-runCtx.Done():
						return
					case <-time.After(wait):
					}
				}
				var it item
				select {
				case <-runCtx.Done():
					return
				case it = <-queue:
				}
				// A dispatch taken while the breaker is open (cooldown
				// already served) is this worker's half-open probe.
				probe := br.open
				// Honor retry backoff. Parking this worker (rather than
				// reordering the queue) is fine: each shard's chain has
				// one outstanding item, so no ready work is behind it
				// for this worker that another idle worker can't take.
				if wait := time.Until(it.notBefore); wait > 0 {
					select {
					case <-runCtx.Done():
						return
					case <-time.After(wait):
					}
				}
				sub := plan.Shards[it.shard]
				shard := sub.Options.Shard

				mu.Lock()
				if partials[it.shard] != nil {
					// Stale work: the shard landed while this item sat
					// queued (hedge or late retry). Drop it.
					mu.Unlock()
					continue
				}
				attempts++
				aid := attempts
				if !it.hedge {
					curAtt[it.shard] = it.attempt
				}
				actx, acancel := context.WithCancel(runCtx)
				inflight[it.shard][aid] = acancel
				started[it.shard] = time.Now()
				d := n - remaining
				mu.Unlock()

				sub.Progress = func(ev task.Event) {
					mu.Lock()
					d := n - remaining
					mu.Unlock()
					emit(Event{Type: EventJob, Worker: r.Name(), Shard: shard, Done: d, Total: n, Job: &ev})
				}
				// When the coordinator's run is traced, each attempt gets
				// its own shard span and the worker re-roots its spans
				// under it via the serialized trace context; the winning
				// partial's spans are adopted below, so HTTP and loopback
				// fleets stitch into one tree identically.
				_, shardSpan := obs.Start(runCtx, "shard")
				shardSpan.SetStr("worker", r.Name()).
					SetInt("shard", int64(it.shard)).
					SetInt("attempt", int64(it.attempt))
				if it.hedge {
					shardSpan.SetBool("hedge", true)
				}
				sub.Trace = nil
				if shardSpan != nil {
					sub.Trace = &obs.TraceContext{
						Parent: shardSpan.ID(),
						Cap:    obs.FromContext(runCtx).Cap(),
					}
				}
				attemptCtx, cancelTimeout := actx, context.CancelFunc(func() {})
				if c.opts.ShardTimeout > 0 {
					attemptCtx, cancelTimeout = context.WithTimeout(actx, c.opts.ShardTimeout)
				}
				emit(Event{Type: EventShardStart, Worker: r.Name(), Shard: shard, Done: d, Total: n})

				attemptStart := time.Now()
				var p *task.Partial
				err := fault.Hit(fault.DistDispatch)
				if err == nil {
					p, err = r.Run(attemptCtx, sub)
					if err == nil && p != nil {
						// The worker did the work; the coordinator loses
						// the response (decode failure, dropped conn).
						if ferr := fault.Hit(fault.DistResponse); ferr != nil {
							p, err = nil, ferr
						}
					}
				}
				cancelTimeout()

				if err == nil && p != nil {
					mu.Lock()
					delete(inflight[it.shard], aid)
					first := partials[it.shard] == nil
					var losers []context.CancelFunc
					if first {
						partials[it.shard] = p
						remaining--
						durations = append(durations, time.Since(attemptStart))
						for _, c := range inflight[it.shard] {
							losers = append(losers, c)
						}
					}
					rem := remaining
					mu.Unlock()
					acancel()
					// First result wins; the racing attempt (original or
					// hedge) is cancelled and its outcome discarded.
					for _, c := range losers {
						c()
					}
					shardSpan.SetBool("ok", first)
					if !first {
						shardSpan.SetStr("err", "superseded")
					}
					shardSpan.End()
					if br.open {
						br.open = false
						emit(Event{Type: EventWorkerUp, Worker: r.Name(), Done: n - rem, Total: n})
					}
					br.failures, br.trips = 0, 0
					if first {
						// Only the winning attempt's spans join the tree; a
						// duplicate partial would double-report the work.
						obs.FromContext(runCtx).Adopt(p.Trace, shardSpan.ID())
						if c.opts.OnPartial != nil {
							c.opts.OnPartial(it.shard, n, p)
						}
						emit(Event{Type: EventShardDone, Worker: r.Name(), Shard: shard, Done: n - rem, Total: n})
					}
					if rem == 0 {
						doneOnce.Do(func() { close(done) })
						return
					}
					continue
				}

				acancel()
				if runCtx.Err() != nil {
					shardSpan.SetBool("ok", false)
					shardSpan.End()
					return // the run as a whole is over; not this worker's failure
				}
				mu.Lock()
				delete(inflight[it.shard], aid)
				superseded := partials[it.shard] != nil
				mu.Unlock()
				if superseded {
					// The racing attempt won and cancelled us mid-flight;
					// nothing failed from the run's point of view.
					shardSpan.SetBool("ok", false).SetStr("err", "superseded")
					shardSpan.End()
					continue
				}
				if err == nil {
					err = fmt.Errorf("runner returned no partial")
				}
				shardSpan.SetBool("ok", false).SetStr("err", err.Error())
				shardSpan.End()
				br.failures++
				var requeue bool
				var next item
				mu.Lock()
				if !it.hedge {
					// A failed half-open probe re-trips the breaker but does
					// not charge the shard's attempt budget: the worker is
					// still down, so the attempt never reached healthy
					// hardware — the old bench model never billed those
					// either. The per-shard exemption cap keeps a fully-dead
					// fleet terminating instead of probing forever.
					exempt := probe && probeFree[it.shard] < 3*len(c.runners)
					if exempt {
						probeFree[it.shard]++
					} else if it.attempt >= c.opts.MaxAttempts {
						if fatal == nil {
							fatal = fmt.Errorf("dist: shard %s failed after %d attempts (last on %s): %w",
								shard, it.attempt, r.Name(), err)
						}
						mu.Unlock()
						cancel()
						return
					}
					retries++
					next = item{
						shard:     it.shard,
						attempt:   it.attempt + 1,
						notBefore: time.Now().Add(backoffDelay(it.attempt+1, err)),
					}
					if exempt {
						next.attempt = it.attempt
					}
					requeue = true
				}
				d = n - remaining
				mu.Unlock()
				emit(Event{Type: EventShardRetry, Worker: r.Name(), Shard: shard, Done: d, Total: n, Err: err.Error()})
				if requeue {
					queue <- next
				}
				if br.open || br.failures >= c.opts.RunnerFailureLimit {
					// Trip (or, for a failed half-open probe, re-trip) the
					// breaker: cooldown doubles per consecutive trip
					// (capped), then the worker probes half-open again.
					cooldown := c.opts.BreakerCooldown
					for i := 0; i < br.trips && i < 4; i++ {
						cooldown *= 2
					}
					br.open = true
					br.openUntil = time.Now().Add(cooldown)
					br.trips++
					br.failures = 0
					emit(Event{Type: EventWorkerDown, Worker: r.Name(), Done: d, Total: n, Err: err.Error()})
				}
			}
		}(r)
	}

	// Hedger: when exactly one shard is left and its attempt has
	// outlived the quantile of completed shard durations, enqueue one
	// speculative duplicate for an idle worker. Refute-only on
	// wall-clock: the winning bytes are identical either way.
	if c.opts.Hedge {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(5 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-ticker.C:
				}
				mu.Lock()
				if remaining != 1 || len(durations) == 0 {
					mu.Unlock()
					continue
				}
				s := -1
				for i := range partials {
					if partials[i] == nil {
						s = i
						break
					}
				}
				if s < 0 || hedged[s] || len(inflight[s]) != 1 {
					// Not running right now (queued or backing off), or
					// already hedged: one hedge per shard.
					mu.Unlock()
					continue
				}
				sorted := append([]time.Duration(nil), durations...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				threshold := max(sorted[int(hedgeQuantile*float64(len(sorted)-1)+0.5)], hedgeMinDelay)
				if time.Since(started[s]) < threshold {
					mu.Unlock()
					continue
				}
				hedged[s] = true
				hedges++
				it := item{shard: s, attempt: curAtt[s], hedge: true}
				d := n - remaining
				mu.Unlock()
				emit(Event{Type: EventShardHedge, Shard: plan.Shards[s].Options.Shard, Done: d, Total: n})
				queue <- it
			}
		}()
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-done:
		cancel() // release workers parked on the queue
		<-finished
	case <-finished:
		// every worker exited: run done, fatal, or parent cancelled
	case <-ctx.Done():
		cancel()
		<-finished
	}

	// All workers have exited; no further writes race these reads.
	if fatal != nil {
		return nil, fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if remaining > 0 {
		return nil, fmt.Errorf("dist: %d of %d shards unfinished: no healthy workers left", remaining, n)
	}
	merged, err := task.MergeRuns(partials)
	if err != nil {
		return nil, err
	}
	return &Result{
		Run:    merged,
		Shards: n, Workers: len(c.runners),
		Attempts: attempts, Retries: retries,
		Hedges: hedges, Restored: restored,
	}, nil
}
