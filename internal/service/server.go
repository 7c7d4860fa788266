// Package service is the production HTTP tier of the FVEval task
// registry — the code behind cmd/fvevald. It wraps one shared
// task.Engine with everything a long-lived, multi-client deployment
// needs that the engine itself does not provide:
//
//   - a persistent run store: every lifecycle transition is journaled
//     to disk (append-only JSONL with snapshot compaction) and
//     recovered on restart — terminal runs are served byte-identical
//     from the journal, queued runs are re-admitted, in-flight
//     distributed runs resume from their checkpointed shards, and
//     other in-flight runs are reported interrupted (store.go);
//   - an admission-controlled job queue: bounded depth, per-client
//     queued+running quotas, and priority ordering, with 429/503 +
//     Retry-After on overload (queue.go);
//   - a worker registry: fvevald workers register and heartbeat in,
//     so distributed runs draw their fleet from live registrations
//     instead of a static flag list (registry.go);
//   - a cross-request content-addressed result cache keyed on the
//     canonicalized request (resultcache.go);
//   - observability: Prometheus-text /metrics, structured JSON
//     request logging, and /healthz + /readyz (metrics.go).
//
// The wire contract lives in internal/service/api; the matching typed
// client in internal/service/client.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"fveval/internal/dist"
	"fveval/internal/fault"
	"fveval/internal/obs"
	"fveval/internal/service/api"
	"fveval/internal/task"
)

// maxTraceCap bounds the per-run completed-span ring a client can
// request via Trace.Cap — the server-side ceiling on how much memory
// one traced run pins (~256k spans).
const maxTraceCap = 1 << 18

// Config tunes a Server. Engine is required; every other field has a
// production default.
type Config struct {
	// Engine is the shared evaluation engine behind every run.
	Engine *task.Engine
	// DataDir roots the persistent run store; empty disables
	// persistence (runs live only in memory, as in tests).
	DataDir string
	// QueueDepth bounds the admission queue (0 = 256). A submission
	// beyond it is rejected 503 queue_full.
	QueueDepth int
	// ClientQuota bounds one client's queued+running runs (0 = 16). A
	// submission beyond it is rejected 429 quota_exceeded.
	ClientQuota int
	// Concurrency is the number of run executors draining the queue
	// (0 = 2).
	Concurrency int
	// RetainRuns bounds retained terminal run records (0 = 64); the
	// oldest-finished beyond it are evicted from memory and journal.
	RetainRuns int
	// RetainAge, when positive, additionally evicts terminal runs
	// whose finish time is older than the age — age-based retention
	// on top of the count bound.
	RetainAge time.Duration
	// WorkerTTL is the registry liveness window (0 = 15s): a worker
	// that misses heartbeats for longer is evicted.
	WorkerTTL time.Duration
	// ResultCacheSize bounds the content-addressed result store
	// (0 = 256 entries).
	ResultCacheSize int
	// LogWriter receives structured JSON request logs (nil = off).
	LogWriter io.Writer
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints expose process internals and
	// belong behind the same kind of deliberate flag as the Go runtime's
	// own defaults.
	Pprof bool
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c *Config) withDefaults() error {
	if c.Engine == nil {
		return fmt.Errorf("service: Config.Engine is required")
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.ClientQuota == 0 {
		c.ClientQuota = 16
	}
	if c.Concurrency == 0 {
		c.Concurrency = 2
	}
	if c.RetainRuns == 0 {
		c.RetainRuns = 64
	}
	if c.WorkerTTL == 0 {
		c.WorkerTTL = 15 * time.Second
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.QueueDepth < 0 || c.ClientQuota < 0 || c.Concurrency < 0 ||
		c.RetainRuns < 0 || c.RetainAge < 0 || c.WorkerTTL < 0 || c.ResultCacheSize < 0 {
		return fmt.Errorf("service: negative Config field")
	}
	return nil
}

// runState is one run's in-memory state: the persisted record plus
// the live machinery persistence cannot carry (progress buffer,
// stream wakeups, the cancel hook).
type runState struct {
	// rec is the persisted shape; its fields are guarded by mu.
	rec    runRecord
	cancel context.CancelFunc // non-nil while running

	// tracer, rootSp, and queueSp are the run's trace machinery,
	// armed once (before the state is published) for traced full
	// runs and immutable afterwards. Traces are deliberately
	// in-memory only — never journaled — so a recovered run either
	// re-records (it was still queued) or has no trace (terminal).
	tracer  *obs.Recorder
	rootSp  *obs.Span
	queueSp *obs.Span

	mu     sync.Mutex
	events []task.Event
	// notify is closed (and, while live, replaced) whenever events or
	// status change; it stays closed once the run is terminal.
	notify chan struct{}
}

// armTrace attaches the in-memory trace recorder to a traced full
// run: the root "run" span opens immediately and its "queue" child
// measures submit→dequeue wait. Partial (shard) runs skip this — the
// worker records into a fresh recorder inside RunPartial and ships
// the spans on the Partial for coordinator adoption instead.
func (rs *runState) armTrace() {
	if rs.rec.Sub.Trace == nil || rs.rec.Sub.Partial {
		return
	}
	// Clients may ask for a bigger span ring (heavy runs overflow the
	// default), but the server bounds the per-run memory they can pin.
	traceCap := rs.rec.Sub.Trace.Cap
	if traceCap > maxTraceCap {
		traceCap = maxTraceCap
	}
	rs.tracer = obs.NewRecorder(traceCap)
	rs.rootSp = rs.tracer.Start("run", 0)
	rs.rootSp.SetStr("task", rs.rec.Sub.Task).SetStr("run_id", rs.rec.ID)
	rs.queueSp = rs.rootSp.Child("queue").SetPhase(obs.PhaseQueue)
}

// publish appends one progress event and wakes streamers.
func (rs *runState) publish(ev task.Event) {
	rs.mu.Lock()
	rs.events = append(rs.events, ev)
	close(rs.notify)
	rs.notify = make(chan struct{})
	rs.mu.Unlock()
}

// Server is the fvevald HTTP front-end.
type Server struct {
	cfg      Config
	eng      *task.Engine
	mux      *http.ServeMux
	registry *workerRegistry
	results  *resultCache
	metrics  metrics
	now      func() time.Time

	// jmu serializes journal compaction (writer) against appends
	// (readers), so a compaction snapshot can never race an append
	// into losing a record. Never acquired while holding mu.
	jmu     sync.RWMutex
	journal *journal

	logMu sync.Mutex

	mu          sync.Mutex
	cond        *sync.Cond // signals executors; waits on mu
	seq         int64
	runs        map[string]*runState
	queue       admitQueue
	qseq        int64
	queuedCount int
	inflight    int
	clientLoad  map[string]int
	draining    bool
	killed      bool // abrupt Close: suppress journaling, stop executors

	execWG sync.WaitGroup // executor goroutines
	runWG  sync.WaitGroup // claimed (executing) runs
}

// New builds a server, recovering the run store when cfg.DataDir is
// set: terminal runs are served from the journal, queued runs are
// re-admitted in their original priority order, and runs that were in
// flight at the crash are marked interrupted.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		eng:        cfg.Engine,
		mux:        http.NewServeMux(),
		results:    newResultCache(cfg.ResultCacheSize),
		now:        cfg.Now,
		runs:       map[string]*runState{},
		clientLoad: map[string]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.metrics.init()
	s.registry = newWorkerRegistry(cfg.WorkerTTL, cfg.Now, func() { s.metrics.workerEvicts.Add(1) })

	if cfg.DataDir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}

	s.mux.HandleFunc("GET /v1/tasks", s.handleTasks)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/workers/register", s.handleRegister)
	s.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("DELETE /v1/workers/{id}", s.handleDeregister)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Pprof {
		// Index serves /debug/pprof/{heap,goroutine,...} via the
		// trailing-slash route; the named profiles need explicit mounts.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	for i := 0; i < cfg.Concurrency; i++ {
		s.execWG.Add(1)
		go s.executor()
	}
	return s, nil
}

// admit registers a queued run and pushes it onto the admission
// queue: it holds a queue slot until it starts and one of its client's
// load slots until it finishes. Callers hold s.mu (recover runs before
// the server is shared).
func (s *Server) admit(rs *runState) {
	rs.armTrace()
	s.runs[rs.rec.ID] = rs
	s.queuedCount++
	s.clientLoad[rs.rec.Client]++
	s.qseq++
	s.queue.push(qitem{id: rs.rec.ID, priority: rs.rec.Sub.Priority, seq: s.qseq})
}

// release frees the load slot a finished or cancelled run held
// against its client's quota. Callers hold s.mu.
func (s *Server) release(client string) {
	s.clientLoad[client]--
	if s.clientLoad[client] <= 0 {
		delete(s.clientLoad, client)
	}
}

// recover opens the journal and folds its records back into live
// server state.
func (s *Server) recover() error {
	j, recovered, err := openJournal(s.cfg.DataDir)
	if err != nil {
		return err
	}
	s.journal = j

	ids := make([]string, 0, len(recovered))
	for id := range recovered {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	nowMS := s.now().UnixMilli()
	var interrupted []*runState
	for _, id := range ids {
		rec := recovered[id]
		if n := runSeq(rec.ID); n > s.seq {
			s.seq = n
		}
		rs := &runState{rec: *rec, notify: make(chan struct{})}
		switch rec.Status {
		case api.StateQueued:
			// Never started: resume it through the normal queue. A
			// traced run re-records from scratch — the pre-crash queue
			// wait is gone, like its progress events.
			s.admit(rs)
		case api.StateRunning:
			if rec.Sub.Distributed {
				// A distributed run checkpoints each completed shard to
				// the store, so the crash lost only the in-flight shards:
				// re-admit it and let the coordinator resume from the
				// survivors instead of reporting it interrupted.
				rs.rec.Status = api.StateQueued
				rs.rec.StartedMS = 0
				s.admit(rs)
				continue
			}
			// In flight at the crash: its engine state is gone.
			rs.rec.Status = api.StateInterrupted
			rs.rec.Error = "server restarted while the run was in flight"
			rs.rec.FinishedMS = nowMS
			close(rs.notify)
			s.runs[id] = rs
			interrupted = append(interrupted, rs)
			s.metrics.finished(api.StateInterrupted)
		default: // terminal: serve as-is; re-seed the result cache
			close(rs.notify)
			s.runs[id] = rs
			if rec.Status == api.StateDone && !rec.Sub.Options.NoCache {
				if key, err := resultKey(rec.Sub.Request, rec.Partial != nil); err == nil {
					s.results.put(key, rec.Run, rec.Partial)
				}
			}
		}
	}
	for _, rs := range interrupted {
		s.journalAppend(&journalRecord{
			Op: "finish", MS: nowMS, ID: rs.rec.ID,
			Status: api.StateInterrupted, Error: rs.rec.Error,
		})
	}
	// Fold the recovery into a fresh snapshot so the next crash
	// replays from a compact store.
	s.compactNow(true)
	return nil
}

// runSeq parses the numeric suffix of a run id (0 if malformed).
func runSeq(id string) int64 {
	const prefix = "run-"
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return 0
	}
	n, err := strconv.ParseInt(id[len(prefix):], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// ServeHTTP serves the v1 API with structured request logging.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.LogWriter == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := s.now()
	lw := &loggedWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(lw, r)
	s.logLine(map[string]any{
		"ts":     start.UTC().Format(time.RFC3339Nano),
		"method": r.Method,
		"path":   r.URL.Path,
		"status": lw.status,
		"dur_ms": s.now().Sub(start).Milliseconds(),
		"bytes":  lw.bytes,
		"client": clientID(r),
	})
}

// logLine writes one JSON line to the request log.
func (s *Server) logLine(fields map[string]any) {
	line, err := json.Marshal(fields)
	if err != nil {
		return
	}
	s.logMu.Lock()
	fmt.Fprintf(s.cfg.LogWriter, "%s\n", line)
	s.logMu.Unlock()
}

// loggedWriter records status and byte count while preserving the
// Flusher the event stream depends on.
type loggedWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (l *loggedWriter) WriteHeader(code int) {
	l.status = code
	l.ResponseWriter.WriteHeader(code)
}

func (l *loggedWriter) Write(p []byte) (int, error) {
	n, err := l.ResponseWriter.Write(p)
	l.bytes += n
	return n, err
}

func (l *loggedWriter) Flush() {
	if f, ok := l.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clientID derives the admission identity: the SHA-addressed API key
// when one is presented, the remote host otherwise. Keys are hashed
// so they never appear in run views or logs.
func clientID(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		sum := sha256.Sum256([]byte(key))
		return "key-" + hex.EncodeToString(sum[:4])
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "ip-" + host
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is the only failure
}

// writeError emits the unified error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.ErrorEnvelope{Error: api.ErrorInfo{Code: code, Message: msg}})
}

// journalAppend routes one record through the compaction lock and
// triggers compaction once the journal accumulates enough appends.
func (s *Server) journalAppend(rec *journalRecord) {
	s.mu.Lock()
	killed := s.killed
	s.mu.Unlock()
	if killed {
		return
	}
	s.jmu.RLock()
	n, err := s.journal.append(rec)
	s.jmu.RUnlock()
	if err != nil {
		s.logInternal("journal append failed: " + err.Error())
		return
	}
	if n >= compactThreshold {
		s.compactNow(false)
	}
}

// compactNow snapshots the live run set and truncates the journal.
// The exclusive jmu hold means no append can land between the state
// collection and the truncation, so compaction never loses a record.
func (s *Server) compactNow(force bool) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		return
	}
	if !force && s.journal.appends < compactThreshold {
		return // raced with another compaction
	}
	s.mu.Lock()
	records := make([]*runRecord, 0, len(s.runs))
	for _, rs := range s.runs {
		rs.mu.Lock()
		rec := rs.rec
		rs.mu.Unlock()
		records = append(records, &rec)
	}
	s.mu.Unlock()
	if err := s.journal.compact(records); err != nil {
		s.logInternal("journal compaction failed: " + err.Error())
		return
	}
	s.metrics.compactions.Add(1)
}

func (s *Server) logInternal(msg string) {
	if s.cfg.LogWriter == nil {
		return
	}
	s.logLine(map[string]any{
		"ts":    s.now().UTC().Format(time.RFC3339Nano),
		"level": "error",
		"msg":   msg,
	})
}

// handleTasks lists the registry: GET /v1/tasks.
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.TaskList{Tasks: task.Tasks()})
}

// handleSubmit admits a run: POST /v1/runs with an api.Submission
// body. The request is validated synchronously (400), checked against
// the result cache (200 with the finished run), then admitted against
// the per-client quota (429) and the queue bound (503) — both with
// Retry-After — and finally journaled and queued (202).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub api.Submission
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := sub.Request.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if sub.Priority < api.MinPriority || sub.Priority > api.MaxPriority {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("priority %d out of range %d..%d", sub.Priority, api.MinPriority, api.MaxPriority))
		return
	}
	sub.Partial = sub.Partial || sub.Request.Options.Shard.Enabled()
	if sub.Partial && sub.Distributed {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			"a shard-scoped (partial) run cannot itself be distributed")
		return
	}
	if sub.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "timeout_ms must be non-negative")
		return
	}
	client := clientID(r)
	key, keyErr := resultKey(sub.Request, sub.Partial)
	if keyErr != nil {
		key = "" // validated above, so unreachable in practice; run uncached
	}
	nowMS := s.now().UnixMilli()

	s.mu.Lock()
	if s.draining || s.killed {
		s.mu.Unlock()
		s.metrics.admissionRejected.draining.Add(1)
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server is shutting down")
		return
	}

	// Cross-request result cache: identical canonical requests are
	// served the finished result without touching the engine or the
	// queue (and without consuming quota). Traced submissions skip the
	// lookup — the key is trace-blind (Canonical strips Trace), so a
	// hit would hand back a result with no spans to serve; they still
	// feed the cache on finish, since the result itself is
	// trace-independent.
	if !sub.Request.Options.NoCache && sub.Request.Trace == nil {
		if run, partial, ok := s.results.get(key); ok {
			s.seq++
			id := fmt.Sprintf("run-%06d", s.seq)
			rs := &runState{
				rec: runRecord{
					ID: id, Client: client, Sub: sub,
					Status: api.StateDone, Cached: true,
					CreatedMS: nowMS, FinishedMS: nowMS,
					Run: run, Partial: partial,
				},
				notify: make(chan struct{}),
			}
			close(rs.notify)
			s.runs[id] = rs
			evicted := s.evictLocked(nowMS)
			s.mu.Unlock()
			s.metrics.runsSubmitted.Add(1)
			s.metrics.cacheHits.Add(1)
			s.journalAppend(&journalRecord{Op: "submit", MS: nowMS, ID: id, Client: client, Sub: &sub})
			s.journalAppend(&journalRecord{
				Op: "finish", MS: nowMS, ID: id,
				Status: api.StateDone, Cached: true, Run: run, Partial: partial,
			})
			s.journalEvict(nowMS, evicted)
			writeJSON(w, http.StatusOK, api.SubmitResponse{ID: id, Status: api.StateDone, Cached: true})
			return
		}
	}

	if sub.Distributed && len(s.registry.live()) == 0 {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, api.CodeNoWorkers,
			"no live workers registered; distributed runs need a registered fleet")
		return
	}
	if s.clientLoad[client] >= s.cfg.ClientQuota {
		s.mu.Unlock()
		s.metrics.admissionRejected.quota.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, api.CodeQuotaExceeded,
			fmt.Sprintf("client %s has %d runs queued or running (quota %d)", client, s.cfg.ClientQuota, s.cfg.ClientQuota))
		return
	}
	if s.queuedCount >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.metrics.admissionRejected.queueFull.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, api.CodeQueueFull,
			fmt.Sprintf("admission queue is full (%d runs)", s.cfg.QueueDepth))
		return
	}

	s.seq++
	id := fmt.Sprintf("run-%06d", s.seq)
	rs := &runState{
		rec: runRecord{
			ID: id, Client: client, Sub: sub,
			Status: api.StateQueued, CreatedMS: nowMS,
		},
		notify: make(chan struct{}),
	}
	s.admit(rs)
	position := s.queuedCount
	s.cond.Signal()
	s.mu.Unlock()

	s.metrics.runsSubmitted.Add(1)
	s.metrics.cacheMisses.Add(1)
	s.journalAppend(&journalRecord{Op: "submit", MS: nowMS, ID: id, Client: client, Sub: &sub})
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: id, Status: api.StateQueued, Position: position})
}

// executor drains the admission queue: claim the highest-priority
// queued run, journal its start, execute it, and record the terminal
// state. Runs whose records already went terminal while queued
// (cancel-while-queued) are skipped.
func (s *Server) executor() {
	defer s.execWG.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.killed {
			s.cond.Wait()
		}
		if s.killed {
			s.mu.Unlock()
			return
		}
		it, _ := s.queue.pop()
		rs := s.runs[it.id]
		if rs == nil {
			s.mu.Unlock()
			continue // evicted while queued
		}
		rs.mu.Lock()
		if rs.rec.Status != api.StateQueued {
			rs.mu.Unlock()
			s.mu.Unlock()
			continue // cancelled while queued; counters already adjusted
		}
		ctx, cancel := context.WithCancel(context.Background())
		rs.rec.Status = api.StateRunning
		rs.rec.StartedMS = s.now().UnixMilli()
		rs.cancel = cancel
		startMS := rs.rec.StartedMS
		waitMS := startMS - rs.rec.CreatedMS
		rs.mu.Unlock()
		s.queuedCount--
		s.inflight++
		s.runWG.Add(1)
		s.mu.Unlock()

		rs.queueSp.End()
		s.metrics.queueWait.observe(float64(waitMS) / 1000)
		s.journalAppend(&journalRecord{Op: "start", MS: startMS, ID: it.id})
		s.execute(ctx, cancel, rs)
	}
}

// execute runs one claimed run to a terminal state.
func (s *Server) execute(ctx context.Context, cancel context.CancelFunc, rs *runState) {
	defer s.runWG.Done()
	defer cancel()

	rs.mu.Lock()
	sub := rs.rec.Sub
	rs.mu.Unlock()
	req := sub.Request
	req.Progress = rs.publish
	if rs.tracer != nil {
		ctx = obs.ContextWithSpan(obs.NewContext(ctx, rs.tracer), rs.rootSp)
	}
	if sub.TimeoutMS > 0 {
		// End-to-end deadline: the remaining budget rides the context so
		// distributed shard requests forward it to workers (the client
		// turns it back into timeout_ms per shard submission).
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, time.Duration(sub.TimeoutMS)*time.Millisecond)
		defer cancelT()
	}

	started := s.now()
	var (
		run     *task.Run
		partial *task.Partial
		err     error
	)
	switch {
	case sub.Distributed:
		run, err = s.runDistributed(ctx, rs, req)
	case sub.Partial:
		partial, err = s.eng.RunPartial(ctx, req)
	default:
		run, err = s.eng.Run(ctx, req)
	}
	if rs.tracer != nil {
		if err != nil {
			rs.rootSp.SetStr("err", err.Error())
		}
		rs.rootSp.End()
		if run != nil && sub.Distributed {
			// A distributed run's merged profile is the sum of shard
			// profiles; the coordinator's own phases (the queue wait)
			// live in this recorder and fold in here. Local runs pick
			// them up cumulatively inside task.Engine.execute instead.
			run.Stats.Profile = run.Stats.Profile.Add(rs.tracer.Profile())
		}
	}
	s.metrics.runWall.observe(s.now().Sub(started).Seconds())
	s.finish(rs, run, partial, err)
}

// runDistributed fans one run across the live worker registry via the
// dist coordinator. Completed shards are checkpointed to the store as
// they land, so a coordinator crash resumes instead of restarting;
// shard retries, hedges, and breaker transitions feed /metrics.
func (s *Server) runDistributed(ctx context.Context, rs *runState, req task.Request) (*task.Run, error) {
	rs.mu.Lock()
	checkpoints := rs.rec.Checkpoints
	ckShards := rs.rec.CheckpointShards
	rs.mu.Unlock()

	// A run resumed after a coordinator restart can come up before its
	// workers have re-registered (they heartbeat every TTL/3 and fall
	// back to registration on 404), so wait out up to one TTL for the
	// fleet rather than failing the recovery immediately.
	workers := s.registry.live()
	if len(workers) == 0 {
		deadline := s.now().Add(s.cfg.WorkerTTL)
		for len(workers) == 0 {
			if s.now().After(deadline) {
				return nil, fmt.Errorf("no live workers registered")
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			workers = s.registry.live()
		}
	}
	runners := make([]dist.Runner, len(workers))
	for i, w := range workers {
		runners[i] = dist.NewHTTPRunner(w.URL)
	}
	progress := req.Progress
	req.Progress = nil
	opts := dist.Options{
		Hedge: true,
		Progress: func(ev dist.Event) {
			switch ev.Type {
			case dist.EventJob:
				if progress != nil && ev.Job != nil {
					progress(*ev.Job)
				}
			case dist.EventShardRetry:
				s.metrics.shardRetries.Add(1)
			case dist.EventShardHedge:
				s.metrics.shardHedges.Add(1)
			case dist.EventWorkerDown:
				s.metrics.breakerTrips.Add(1)
			case dist.EventWorkerUp:
				s.metrics.breakerRecoveries.Add(1)
			}
		},
		OnPartial: func(shard, total int, p *task.Partial) {
			s.checkpoint(rs, shard, total, p)
		},
	}
	if len(checkpoints) > 0 && ckShards > 0 {
		// Pin the plan to the shard count the checkpoints were cut
		// against; indices are only meaningful for that exact split.
		opts.Shards = ckShards
		opts.Completed = checkpoints
	}
	coord, err := dist.New(runners, opts)
	if err != nil {
		return nil, err
	}
	res, err := coord.Run(ctx, req)
	if err != nil {
		return nil, err
	}
	if res.Restored > 0 {
		s.metrics.checkpointRestores.Add(int64(res.Restored))
	}
	return res.Run, nil
}

// checkpoint persists one completed shard of an in-flight distributed
// run. The record map is replaced copy-on-write under rs.mu (never
// mutated in place) so concurrent snapshot compaction can marshal the
// old map without a lock on its contents.
func (s *Server) checkpoint(rs *runState, shard, total int, p *task.Partial) {
	nowMS := s.now().UnixMilli()
	rs.mu.Lock()
	if api.Terminal(rs.rec.Status) {
		// A cancel raced the shard landing; never resurrect it.
		rs.mu.Unlock()
		return
	}
	next := make(map[int]*task.Partial, len(rs.rec.Checkpoints)+1)
	if rs.rec.CheckpointShards == total {
		for k, v := range rs.rec.Checkpoints {
			next[k] = v
		}
	}
	next[shard] = p
	rs.rec.Checkpoints = next
	rs.rec.CheckpointShards = total
	id := rs.rec.ID
	rs.mu.Unlock()

	s.metrics.checkpointsWritten.Add(1)
	s.journalAppend(&journalRecord{Op: "checkpoint", MS: nowMS, ID: id, Shard: shard, Shards: total, Partial: p})
}

// finish records a run's terminal state, journals it, feeds the
// result cache, and applies retention.
func (s *Server) finish(rs *runState, run *task.Run, partial *task.Partial, err error) {
	status := api.StateDone
	errMsg := ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		status = api.StateCancelled
		errMsg = err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		status = api.StateError
		errMsg = "run exceeded its deadline (timeout_ms)"
	default:
		status = api.StateError
		errMsg = err.Error()
	}
	nowMS := s.now().UnixMilli()

	// Retention runs in the critical section that makes the run
	// terminal, so a client that has seen this run finish is never
	// served a run that this finish evicts.
	s.mu.Lock()
	rs.mu.Lock()
	rs.rec.Status = status
	rs.rec.Error = errMsg
	rs.rec.FinishedMS = nowMS
	rs.rec.Run = run
	rs.rec.Partial = partial
	rs.rec.Checkpoints = nil
	rs.rec.CheckpointShards = 0
	id, client, sub := rs.rec.ID, rs.rec.Client, rs.rec.Sub
	close(rs.notify)
	rs.mu.Unlock()
	s.inflight--
	s.release(client)
	evicted := s.evictLocked(nowMS)
	s.mu.Unlock()

	s.metrics.finished(status)
	if status == api.StateDone && !sub.Request.Options.NoCache {
		if key, kerr := resultKey(sub.Request, sub.Partial); kerr == nil {
			s.results.put(key, run, partial)
		}
	}
	s.journalAppend(&journalRecord{
		Op: "finish", MS: nowMS, ID: id,
		Status: status, Error: errMsg, Run: run, Partial: partial,
	})
	s.journalEvict(nowMS, evicted)
}

// evictLocked applies retention to terminal runs at nowMS — oldest
// finish-time first beyond RetainRuns, plus anything older than
// RetainAge — and returns the evicted IDs, sorted. Callers hold s.mu
// and journal the eviction with journalEvict once they release it.
func (s *Server) evictLocked(nowMS int64) []string {
	var cutoffMS int64
	if s.cfg.RetainAge > 0 {
		cutoffMS = nowMS - s.cfg.RetainAge.Milliseconds()
	}

	type finished struct {
		id string
		ms int64
	}
	var terminal []finished
	for id, rs := range s.runs {
		rs.mu.Lock()
		if api.Terminal(rs.rec.Status) {
			terminal = append(terminal, finished{id: id, ms: rs.rec.FinishedMS})
		}
		rs.mu.Unlock()
	}
	// Oldest terminal first: retention is finish-time ordered, so an
	// old run that only recently finished is not evicted ahead of a
	// young run that finished long ago.
	sort.Slice(terminal, func(i, j int) bool {
		if terminal[i].ms != terminal[j].ms {
			return terminal[i].ms < terminal[j].ms
		}
		return terminal[i].id < terminal[j].id
	})
	excess := len(terminal) - s.cfg.RetainRuns
	var evicted []string
	for i, f := range terminal {
		if i < excess || (cutoffMS > 0 && f.ms < cutoffMS) {
			delete(s.runs, f.id)
			evicted = append(evicted, f.id)
		}
	}
	sort.Strings(evicted)
	return evicted
}

// journalEvict journals a batch eviction, if there was one.
func (s *Server) journalEvict(nowMS int64, evicted []string) {
	if len(evicted) > 0 {
		s.journalAppend(&journalRecord{Op: "evict", MS: nowMS, IDs: evicted})
	}
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *runState {
	s.mu.Lock()
	rs := s.runs[r.PathValue("id")]
	s.mu.Unlock()
	if rs == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown run "+r.PathValue("id"))
	}
	return rs
}

// view renders a run's current state; full includes the heavyweight
// result payloads.
func (rs *runState) view(full bool) api.RunView {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	v := api.RunView{
		ID: rs.rec.ID, Status: rs.rec.Status, Task: rs.rec.Sub.Task,
		Client: rs.rec.Client, Priority: rs.rec.Sub.Priority, Cached: rs.rec.Cached,
		CreatedMS: rs.rec.CreatedMS, StartedMS: rs.rec.StartedMS, FinishedMS: rs.rec.FinishedMS,
		Events: len(rs.events), Error: rs.rec.Error,
	}
	if full {
		v.Run = rs.rec.Run
		v.Part = rs.rec.Partial
		if n := len(rs.events); n > 0 {
			last := rs.events[n-1]
			v.Last = &last
		}
	}
	return v
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rs := s.lookup(w, r)
	if rs == nil {
		return
	}
	writeJSON(w, http.StatusOK, rs.view(true))
}

// handleList pages through runs: GET /v1/runs?limit=&cursor=&state=&task=.
// Runs are ordered by id (admission order); the cursor is the last id
// of the previous page.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := api.DefaultListLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad limit "+raw)
			return
		}
		limit = min(n, api.MaxListLimit)
	}
	cursor := q.Get("cursor")
	stateFilter := q.Get("state")
	taskFilter := q.Get("task")
	if stateFilter != "" && stateFilter != api.StateQueued && stateFilter != api.StateRunning && !api.Terminal(stateFilter) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "unknown state "+stateFilter)
		return
	}

	s.mu.Lock()
	ids := make([]string, 0, len(s.runs))
	for id := range s.runs {
		if id > cursor {
			ids = append(ids, id)
		}
	}
	states := make(map[string]*runState, len(ids))
	for _, id := range ids {
		states[id] = s.runs[id]
	}
	s.mu.Unlock()
	sort.Strings(ids)

	out := api.RunList{Runs: []api.RunView{}}
	for _, id := range ids {
		v := states[id].view(false)
		if stateFilter != "" && v.Status != stateFilter {
			continue
		}
		if taskFilter != "" && v.Task != taskFilter {
			continue
		}
		if len(out.Runs) == limit {
			out.NextCursor = out.Runs[limit-1].ID
			break
		}
		out.Runs = append(out.Runs, v)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCancel aborts a run: DELETE /v1/runs/{id}. A queued run goes
// terminal immediately; a running run reaches "cancelled" once its
// in-flight jobs drain.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rs := s.lookup(w, r)
	if rs == nil {
		return
	}
	s.cancelRun(rs)
	rs.mu.Lock()
	status := rs.rec.Status
	id := rs.rec.ID
	rs.mu.Unlock()
	writeJSON(w, http.StatusOK, api.SubmitResponse{ID: id, Status: status})
}

// cancelRun moves a queued run straight to cancelled (its heap entry
// is skipped lazily) or cancels a running run's context.
func (s *Server) cancelRun(rs *runState) {
	nowMS := s.now().UnixMilli()
	s.mu.Lock()
	rs.mu.Lock()
	switch rs.rec.Status {
	case api.StateQueued:
		rs.rec.Status = api.StateCancelled
		rs.rec.Error = "cancelled before execution"
		rs.rec.FinishedMS = nowMS
		close(rs.notify)
		id, client := rs.rec.ID, rs.rec.Client
		rs.mu.Unlock()
		s.queuedCount--
		s.release(client)
		s.mu.Unlock()
		s.metrics.finished(api.StateCancelled)
		s.journalAppend(&journalRecord{
			Op: "finish", MS: nowMS, ID: id,
			Status: api.StateCancelled, Error: "cancelled before execution",
		})
	case api.StateRunning:
		cancel := rs.cancel
		rs.mu.Unlock()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		rs.mu.Unlock()
		s.mu.Unlock()
	}
}

// handleEvents streams progress: GET /v1/runs/{id}/events. Buffered
// events replay first, then live events follow until the run reaches
// a terminal state or the client disconnects. NDJSON by default; SSE
// with Accept: text/event-stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rs := s.lookup(w, r)
	if rs == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "streaming unsupported")
		return
	}
	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	write := func(event string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		} else {
			fmt.Fprintf(w, "%s\n", data)
		}
	}

	sent := 0
	for {
		rs.mu.Lock()
		pending := rs.events[sent:]
		sent = len(rs.events)
		status := rs.rec.Status
		errMsg := rs.rec.Error
		notify := rs.notify
		rs.mu.Unlock()

		for _, ev := range pending {
			write("progress", ev)
		}
		if len(pending) > 0 {
			flusher.Flush()
		}
		if api.Terminal(status) {
			end := map[string]string{"status": status}
			if errMsg != "" {
				end["error"] = errMsg
			}
			write("end", end)
			flusher.Flush()
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves a traced run's completed spans as NDJSON (one
// obs.SpanData per line): GET /v1/runs/{id}/trace. The snapshot is
// safe mid-run — it simply misses spans still open. X-Trace-Dropped
// carries the ring-eviction count. 404 for runs that were not
// submitted with tracing (including recovered ones: traces are
// in-memory only).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rs := s.lookup(w, r)
	if rs == nil {
		return
	}
	if rs.tracer == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			"run "+r.PathValue("id")+` has no trace (submit with "trace" to record one)`)
		return
	}
	spans, dropped := rs.tracer.Snapshot()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Trace-Dropped", strconv.FormatInt(dropped, 10))
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for i := range spans {
		enc.Encode(&spans[i]) //nolint:errcheck // client gone is the only failure
	}
}

// handleRegister adds a worker to the live fleet:
// POST /v1/workers/register {"url": "http://host:port"}.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if err := fault.Hit(fault.WorkerRegister); err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, api.CodeInternal, err.Error())
		return
	}
	var req api.RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.URL == "" || (len(req.URL) < 8 || (req.URL[:7] != "http://" && req.URL[:8] != "https://")) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "url must be an http(s) base URL")
		return
	}
	id := s.registry.register(req.URL)
	ttl := s.cfg.WorkerTTL
	writeJSON(w, http.StatusOK, api.RegisterResponse{
		ID:         id,
		TTLMS:      ttl.Milliseconds(),
		IntervalMS: (ttl / 3).Milliseconds(),
	})
}

// handleHeartbeat refreshes liveness: POST /v1/workers/{id}/heartbeat.
// 404 means the worker was evicted and must re-register.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	// Delay-only plans stall the heartbeat past the TTL (forcing the
	// eviction → 404 → re-register path); error plans reject it.
	if err := fault.Hit(fault.WorkerHeartbeat); err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, api.CodeInternal, err.Error())
		return
	}
	id := r.PathValue("id")
	if !s.registry.heartbeat(id) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown worker "+id+" (re-register)")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "ok"})
}

// handleDeregister removes a worker: DELETE /v1/workers/{id}.
func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.registry.deregister(id) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown worker "+id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "deregistered"})
}

// handleWorkers lists the live fleet: GET /v1/workers.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.WorkerList{Workers: s.registry.live()})
}

// handleMetrics serves the Prometheus text exposition: GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// handleHealthz reports process liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
}

// handleReadyz reports readiness to accept runs: 503 while draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining || s.killed
	queued := s.queuedCount
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server is shutting down")
		return
	}
	writeJSON(w, http.StatusOK, api.Health{
		Status:     "ready",
		QueueDepth: queued,
		Workers:    len(s.registry.live()),
	})
}

// Drain begins graceful shutdown: refuse new submissions, cancel
// every queued and in-flight run to a journaled terminal state, and
// wait for executing runs to land (which also flushes every event
// stream). The server still answers reads afterwards; follow with
// Close.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	states := make([]*runState, 0, len(s.runs))
	for _, rs := range s.runs {
		states = append(states, rs)
	}
	s.mu.Unlock()
	for _, rs := range states {
		s.cancelRun(rs)
	}
	s.runWG.Wait()
}

// Close shuts the server down abruptly: executors stop, in-flight run
// contexts are cancelled WITHOUT journaling a terminal state, and the
// journal file is closed. This is deliberately kill -9-shaped — a
// crashed or Closed server recovers identically: journaled terminal
// runs are served from disk, queued runs re-admitted, in-flight runs
// reported interrupted. Graceful shutdown is Drain followed by Close.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return nil
	}
	s.killed = true
	states := make([]*runState, 0, len(s.runs))
	for _, rs := range s.runs {
		states = append(states, rs)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, rs := range states {
		rs.mu.Lock()
		cancel := rs.cancel
		rs.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	s.execWG.Wait()
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.journal.Close()
}
