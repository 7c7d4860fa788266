// Package client is the typed Go client for the fvevald v1 service
// API (internal/service). Every caller in the repo that speaks to a
// fvevald — cmd/fvevalctl, the dist.HTTPRunner shard transport, the
// worker heartbeat loop — goes through this package, so the wire
// contract (internal/service/api) has exactly one encoder and one
// decoder on each side.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fveval/internal/obs"
	"fveval/internal/service/api"
	"fveval/internal/task"
)

// Client speaks to one fvevald base URL.
type Client struct {
	base   string
	apiKey string
	http   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithAPIKey attaches an X-API-Key header to every request; the
// server uses it as the admission (quota) identity.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithHTTPClient substitutes the transport (tests, custom timeouts).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New builds a client for a base URL such as "http://host:8080". No
// request timeout is set by default — long runs are bounded by ctx.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the client's base URL.
func (c *Client) Base() string { return c.base }

// apiError decodes the unified error envelope into an *api.Error; a
// body that is not an envelope still yields a usable error. A
// Retry-After header (seconds) rides along as the back-pressure hint
// retry loops treat as a floor on their backoff.
func apiError(resp *http.Response) error {
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env api.ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		return &api.Error{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message, RetryAfter: retryAfter}
	}
	return &api.Error{
		Status:     resp.StatusCode,
		Code:       api.CodeInternal,
		Message:    fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data))),
		RetryAfter: retryAfter,
	}
}

// send issues one request and returns its response when the status is
// 2xx; any other status is decoded into an *api.Error. The caller
// closes the body.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// do issues one request and decodes a 2xx JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: %s %s: decode: %w", method, path, err)
	}
	return nil
}

// Tasks lists the server's task registry.
func (c *Client) Tasks(ctx context.Context) ([]task.Spec, error) {
	var out api.TaskList
	if err := c.do(ctx, http.MethodGet, "/v1/tasks", nil, &out); err != nil {
		return nil, err
	}
	return out.Tasks, nil
}

// Submit admits one run and returns immediately (202 queued, or 200
// done when served from the result cache). Admission rejections
// surface as *api.Error with codes quota_exceeded, queue_full,
// draining, or no_workers.
func (c *Client) Submit(ctx context.Context, sub api.Submission) (api.SubmitResponse, error) {
	var out api.SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/runs", sub, &out)
	return out, err
}

// Get fetches one run's full view, including its Run/Partial payload
// once terminal.
func (c *Client) Get(ctx context.Context, id string) (api.RunView, error) {
	var out api.RunView
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Runs pages through the run list.
func (c *Client) Runs(ctx context.Context, q api.ListRunsQuery) (api.RunList, error) {
	v := url.Values{}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Cursor != "" {
		v.Set("cursor", q.Cursor)
	}
	if q.State != "" {
		v.Set("state", q.State)
	}
	if q.Task != "" {
		v.Set("task", q.Task)
	}
	path := "/v1/runs"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var out api.RunList
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// events follows a run's NDJSON event stream, invoking progress for
// each event, and returns the terminal status line. A non-"done"
// terminal status is reported in the status return, not as an error;
// the error return covers transport and protocol failures only.
func (c *Client) events(ctx context.Context, id string, progress func(task.Event)) (status, errMsg string, err error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return "", "", fmt.Errorf("client: bad event line %q: %w", line, err)
		}
		if probe.Status != "" {
			return probe.Status, probe.Error, nil
		}
		if progress != nil {
			var ev task.Event
			if err := json.Unmarshal(line, &ev); err == nil {
				progress(ev)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", fmt.Errorf("client: event stream broke: %w", err)
	}
	return "", "", fmt.Errorf("client: event stream ended without a terminal status")
}

// follow is the one submit-and-follow path behind Run and RunShard.
// It submits sub, streams the run's events to progress until the run
// is terminal (admission may already answer terminal, from the result
// cache), and hands the run id and terminal status to finish, which
// fetches and maps the outcome; errMsg is never empty for a status
// other than done. A run this call abandons — its event stream or
// finish failed — is cancelled on the server, best-effort, so it stops
// burning cycles. The returned id is empty when the submission itself
// failed.
func (c *Client) follow(ctx context.Context, sub api.Submission, progress func(task.Event), finish func(id, status, errMsg string) error) (string, error) {
	resp, err := c.Submit(ctx, sub)
	if err != nil {
		return "", err
	}
	status, errMsg := resp.Status, ""
	if !api.Terminal(status) {
		status, errMsg, err = c.events(ctx, resp.ID, progress)
	}
	if err == nil {
		if status != api.StateDone && errMsg == "" {
			errMsg = "run ended " + status
		}
		err = finish(resp.ID, status, errMsg)
	}
	if err != nil {
		c.cancelDetached(resp.ID)
	}
	return resp.ID, err
}

// Run submits and follows one run to its terminal state: the one-call
// path used by fvevalctl. A run that lands cancelled is returned with
// context.Canceled, one that lands in error/interrupted with an
// *api.Error carrying its message. The remote run is cancelled
// (best-effort) if ctx dies first.
func (c *Client) Run(ctx context.Context, sub api.Submission, progress func(task.Event)) (api.RunView, error) {
	var view api.RunView
	_, err := c.follow(ctx, sub, progress, func(id, status, errMsg string) error {
		v, err := c.Get(ctx, id)
		if err != nil {
			return err
		}
		view = v
		switch status {
		case api.StateDone:
			return nil
		case api.StateCancelled:
			return context.Canceled
		}
		return &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal, Message: errMsg}
	})
	return view, err
}

// RunShard executes one shard-scoped partial run remotely: submit,
// stream progress, fetch the partial. This is the dist.HTTPRunner
// transport. An abandoned shard (cancellation, stream breakage) is
// cancelled on the worker so it stops burning cycles.
func (c *Client) RunShard(ctx context.Context, req task.Request) (*task.Partial, error) {
	progress := req.Progress
	req.Progress = nil
	sub := api.Submission{Request: req, Partial: true}
	// Forward the remaining deadline budget so the worker's executor
	// enforces it server-side: a coordinator that dies mid-shard can't
	// leave the worker grinding an orphaned run to completion.
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, context.DeadlineExceeded
		}
		sub.TimeoutMS = rem.Milliseconds() + 1
	}
	var part *task.Partial
	id, err := c.follow(ctx, sub, progress, func(id, status, errMsg string) error {
		if status != api.StateDone {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("client: %s: shard %s: %s", c.base, id, errMsg)
		}
		view, err := c.Get(ctx, id)
		if err != nil {
			return err
		}
		if view.Part == nil {
			return fmt.Errorf("client: %s: run %s carries no partial (status %s %s)", c.base, id, view.Status, view.Error)
		}
		part = view.Part
		return nil
	})
	if id == "" {
		return nil, fmt.Errorf("client: %s: submit shard: %w", c.base, err)
	}
	return part, err
}

// cancelDetached issues a best-effort cancel on its own short
// deadline, because the caller's ctx is typically already dead.
func (c *Client) cancelDetached(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c.do(ctx, http.MethodDelete, "/v1/runs/"+url.PathEscape(id), nil, nil) //nolint:errcheck
}

// RegisterWorker announces a worker's base URL to the coordinator and
// returns its lease: worker id, TTL, and suggested heartbeat interval.
func (c *Client) RegisterWorker(ctx context.Context, workerURL string) (api.RegisterResponse, error) {
	var out api.RegisterResponse
	err := c.do(ctx, http.MethodPost, "/v1/workers/register", api.RegisterRequest{URL: workerURL}, &out)
	return out, err
}

// Heartbeat refreshes a worker lease; a not_found error means the
// lease lapsed and the worker must re-register.
func (c *Client) Heartbeat(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/workers/"+url.PathEscape(id)+"/heartbeat", nil, nil)
}

// DeregisterWorker drops a worker lease (graceful worker shutdown).
func (c *Client) DeregisterWorker(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/workers/"+url.PathEscape(id), nil, nil)
}

// Workers lists the coordinator's live fleet.
func (c *Client) Workers(ctx context.Context) ([]api.WorkerInfo, error) {
	var out api.WorkerList
	if err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &out); err != nil {
		return nil, err
	}
	return out.Workers, nil
}

// Trace fetches a traced run's completed spans (the NDJSON stream of
// GET /v1/runs/{id}/trace) plus the ring-eviction count from the
// X-Trace-Dropped header. A run submitted without tracing yields a
// not_found *api.Error.
func (c *Client) Trace(ctx context.Context, id string) ([]obs.SpanData, int64, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id)+"/trace", nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	dropped, _ := strconv.ParseInt(resp.Header.Get("X-Trace-Dropped"), 10, 64)
	var spans []obs.SpanData
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var sp obs.SpanData
		if err := json.Unmarshal(line, &sp); err != nil {
			return nil, 0, fmt.Errorf("client: bad trace line %q: %w", line, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("client: trace stream broke: %w", err)
	}
	return spans, dropped, nil
}

// Metrics scrapes the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Ready probes /readyz; nil means the server accepts submissions.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}
