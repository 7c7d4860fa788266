// Package api is the versioned wire contract of the fvevald service:
// every request body, response body, state name, and error code the
// v1 HTTP surface speaks, as one compile-checked set of types shared
// by the server (internal/service), the typed Go client
// (internal/service/client), and every tool built on them
// (cmd/fvevalctl, internal/dist). Nothing here has behavior — the
// package exists so the wire shapes cannot drift between the two
// sides of the protocol.
package api

import (
	"fmt"
	"time"

	"fveval/internal/task"
)

// Run lifecycle states. A run enters the admission queue as
// StateQueued, moves to StateRunning when an executor picks it up,
// and lands in exactly one terminal state. StateInterrupted is the
// recovery verdict for runs that were in flight when the server died:
// their partial progress is unrecoverable, so a restart reports them
// interrupted rather than silently re-running side-effect-bearing
// work (queued runs, by contrast, are resumed — they had not started).
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateError       = "error"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted"
)

// Terminal reports whether a state is final.
func Terminal(state string) bool {
	switch state {
	case StateDone, StateError, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// Error codes carried in the error envelope. Machine-readable: a
// client switches on Code, not on message text or status alone.
const (
	CodeBadRequest    = "bad_request"    // 400: malformed body or invalid task/params/options
	CodeNotFound      = "not_found"      // 404: unknown run or worker id
	CodeQuotaExceeded = "quota_exceeded" // 429: per-client queued+running quota hit
	CodeQueueFull     = "queue_full"     // 503: admission queue at capacity
	CodeDraining      = "draining"       // 503: server is shutting down
	CodeNoWorkers     = "no_workers"     // 503: distributed run with an empty live registry
	CodeInternal      = "internal"       // 500: anything else
)

// ErrorInfo is the body of the unified error envelope:
//
//	{"error": {"code": "quota_exceeded", "message": "..."}}
//
// Every non-2xx response from every endpoint uses this shape.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope wraps ErrorInfo as the on-wire JSON object.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// Error is the client-side form of a non-2xx response; it implements
// error so envelope failures flow through normal Go error handling
// while keeping Status and Code inspectable.
type Error struct {
	Status  int    // HTTP status code
	Code    string // machine-readable error code
	Message string
	// RetryAfter is the server's back-pressure hint (Retry-After
	// header on 429/503), zero when absent. Retry loops — notably the
	// dist coordinator's backoff — treat it as a floor on their delay.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("service: %d %s: %s", e.Status, e.Code, e.Message)
}

// RetryAfterHint exposes the back-pressure hint behind the interface
// internal/dist probes for (it cannot import this package's consumers).
func (e *Error) RetryAfterHint() time.Duration {
	return e.RetryAfter
}

// IsCode reports whether err is a service *Error with the given code.
func IsCode(err error, code string) bool {
	e, ok := err.(*Error)
	return ok && e.Code == code
}

// Priority bounds for submissions; higher-priority runs leave the
// admission queue first (FIFO within a priority level).
const (
	MinPriority = 0
	MaxPriority = 9
)

// Submission is the POST /v1/runs body: a registry request plus the
// service-level execution mode.
//
// The embedded Request carries the tracing knob: a non-nil "trace"
// object turns span recording on for this run. For full runs the
// server roots the trace itself and serves it at
// GET /v1/runs/{id}/trace; the object is normally empty ({}). For
// partial (shard) runs "trace" additionally carries the
// coordinator's parent span id, and the recorded spans come back on
// the task.Partial instead of a server endpoint. Traces never change
// result bytes and are never persisted.
type Submission struct {
	task.Request

	// Partial selects the raw-grid result shape: the run evaluates via
	// RunPartial and its view carries a task.Partial for coordinator
	// merging instead of an aggregated Run. Implied by shard-scoped
	// Options.
	Partial bool `json:"partial,omitempty"`

	// Distributed fans the run out across the server's live worker
	// registry via the dist coordinator instead of the local engine.
	// Rejected (503 no_workers) when no registered worker is alive,
	// and incompatible with Partial (400).
	Distributed bool `json:"distributed,omitempty"`

	// Priority orders the admission queue (MinPriority..MaxPriority,
	// default 0; higher runs earlier).
	Priority int `json:"priority,omitempty"`

	// TimeoutMS bounds the run's execution wall-clock: the server
	// wraps the executor context in this deadline, and a distributed
	// coordinator forwards the remaining budget to worker shard
	// requests — so an abandoned or dead client cannot pin executor
	// slots forever. 0 = no deadline. A run that overruns lands in
	// StateError.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SubmitResponse acknowledges a submission. Status is StateQueued for
// admitted runs and StateDone for result-cache hits (Cached true), in
// which case the run is immediately pollable in its terminal state.
type SubmitResponse struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Cached   bool   `json:"cached,omitempty"`
	Position int    `json:"position,omitempty"` // queue position at admission (1 = next)
}

// RunView is the GET /v1/runs/{id} shape and the element shape of run
// listings (listings omit the heavyweight Run/Partial/Last fields).
type RunView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Task     string `json:"task"`
	Client   string `json:"client,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Cached marks a run served from the content-addressed result
	// store without touching the engine.
	Cached bool `json:"cached,omitempty"`
	// CreatedMS / StartedMS / FinishedMS are unix-millisecond
	// lifecycle timestamps (0 = not reached).
	CreatedMS  int64 `json:"created_ms,omitempty"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`
	// Events counts buffered progress events (not persisted across
	// restarts; recovered runs report 0).
	Events int           `json:"events"`
	Error  string        `json:"error,omitempty"`
	Run    *task.Run     `json:"run,omitempty"`
	Part   *task.Partial `json:"partial,omitempty"`
	Last   *task.Event   `json:"last_event,omitempty"`
}

// RunList is the GET /v1/runs page shape. NextCursor, when non-empty,
// is the cursor value for the next page; pass it back as ?cursor=.
type RunList struct {
	Runs       []RunView `json:"runs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

// ListRunsQuery names the GET /v1/runs query parameters.
type ListRunsQuery struct {
	// Limit caps the page size (default DefaultListLimit, max
	// MaxListLimit).
	Limit int
	// Cursor resumes listing after the run id it names.
	Cursor string
	// State filters on lifecycle state; Task filters on registry name.
	State string
	Task  string
}

// List paging bounds.
const (
	DefaultListLimit = 50
	MaxListLimit     = 500
)

// RegisterRequest is the POST /v1/workers/register body: the worker's
// advertised base URL (the address the coordinator dials shards to).
type RegisterRequest struct {
	URL string `json:"url"`
}

// RegisterResponse acknowledges a registration. The worker must POST
// /v1/workers/{id}/heartbeat at least every TTLMS milliseconds or it
// is evicted from the live registry; IntervalMS is the recommended
// heartbeat period (TTL/3).
type RegisterResponse struct {
	ID         string `json:"id"`
	TTLMS      int64  `json:"ttl_ms"`
	IntervalMS int64  `json:"interval_ms"`
}

// WorkerInfo describes one live registry entry.
type WorkerInfo struct {
	ID           string `json:"id"`
	URL          string `json:"url"`
	RegisteredMS int64  `json:"registered_ms"`
	LastSeenMS   int64  `json:"last_seen_ms"`
}

// WorkerList is the GET /v1/workers shape.
type WorkerList struct {
	Workers []WorkerInfo `json:"workers"`
}

// TaskList is the GET /v1/tasks shape.
type TaskList struct {
	Tasks []task.Spec `json:"tasks"`
}

// Health is the GET /healthz and /readyz shape.
type Health struct {
	Status string `json:"status"`
	// QueueDepth and Workers annotate readiness responses.
	QueueDepth int `json:"queue_depth,omitempty"`
	Workers    int `json:"workers,omitempty"`
}
