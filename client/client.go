// Package client is the typed Go client for the simd simulation service
// (cmd/simd, internal/serve): job submission, polling, cancellation, result
// and stats retrieval, and live consumption of the per-job Server-Sent
// Events stream — with context plumbing throughout and bounded retries for
// transient failures.
//
// Minimal round trip:
//
//	cl := client.New("http://localhost:8555")
//	st, err := cl.Submit(ctx, client.JobRequest{QASM: src, Strategy: "memory",
//		StrategyParams: json.RawMessage(`{"threshold":4096,"round_fidelity":0.99}`)})
//	...
//	final, err := cl.Wait(ctx, st.ID, 0)       // poll until terminal
//	res, err := cl.Result(ctx, st.ID)          // typed payload
//
// Or stream the simulation's mid-run events instead of polling:
//
//	final, err := cl.Stream(ctx, st.ID, func(e client.Event) error {
//		if e.Type == client.EventApproximation {
//			log.Printf("round at gate %d: %d -> %d nodes",
//				e.GateIndex, e.Round.SizeBefore, e.Round.SizeAfter)
//		}
//		return nil
//	})
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/serve"
)

// Wire types re-exported from the service so callers need only this package.
type (
	// JobRequest is the POST /v1/jobs submission body.
	JobRequest = serve.JobRequest
	// GateSpec is one gate of an inline circuit submission.
	GateSpec = serve.GateSpec
	// JobStatus is the per-job API envelope.
	JobStatus = serve.JobStatus
	// ResultPayload is the payload of a finished job.
	ResultPayload = serve.ResultPayload
	// Stats is the GET /v1/stats body.
	Stats = serve.Stats
	// PoolState is the worker-pool snapshot in Stats, including per-worker
	// jobs, busy time, and utilization.
	PoolState = batch.PoolState
	// PoolWorkerState is one worker's entry in PoolState.PerWorker.
	PoolWorkerState = batch.PoolWorkerState
	// ReorderStats aggregates variable-reordering activity in Stats.
	ReorderStats = serve.ReorderStats
	// Event is one entry of a job's event stream.
	Event = serve.Event
)

// Event types streamed by GET /v1/jobs/{id}/events.
const (
	EventGate          = serve.EventGate
	EventApproximation = serve.EventApproximation
	EventCleanup       = serve.EventCleanup
	EventReorder       = serve.EventReorder
	EventChannel       = serve.EventChannel
	EventFinish        = serve.EventFinish
	EventStatus        = serve.EventStatus
)

// Terminal job statuses (JobStatus.Status).
const (
	StatusQueued   = serve.StatusQueued
	StatusRunning  = serve.StatusRunning
	StatusDone     = serve.StatusDone
	StatusFailed   = serve.StatusFailed
	StatusCanceled = serve.StatusCanceled
	StatusDeadline = serve.StatusDeadline
)

// Typed service errors, shared with the batch engine end to end: the
// service tags rejections with a machine-readable code, and APIError maps
// the code back so errors.Is(err, client.ErrQueueFull) works against the
// same sentinel values the in-process pool returns.
var (
	// ErrQueueFull: the submission queue was full (HTTP 503, load shed) —
	// retry after a backoff.
	ErrQueueFull = batch.ErrQueueFull
	// ErrShutdown: the service stopped accepting jobs.
	ErrShutdown = batch.ErrShutdown
	// ErrCanceled: the job was canceled.
	ErrCanceled = batch.ErrCanceled
)

// APIError is a non-2xx response decoded from the service's error envelope.
type APIError struct {
	StatusCode int
	Message    string
	// Code is the service's machine-readable error code ("queue_full",
	// "shutdown", "canceled", and from the router "no_backend",
	// "backend_down"), empty for untyped errors.
	Code string
	// RetryAfter is the server's backpressure hint (from the envelope's
	// retry_after_ms, falling back to the Retry-After header), zero when the
	// server offered none. Retrying clients wait at least this long.
	RetryAfter time.Duration
	// QueueDepth is the rejecting backend's queue depth at rejection time
	// (queue-full envelopes only, 0 otherwise).
	QueueDepth int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("simd: HTTP %d: %s", e.StatusCode, e.Message)
}

// Unwrap maps the error code to its typed sentinel, making APIError
// errors.Is-able against ErrQueueFull, ErrShutdown, and ErrCanceled.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case serve.CodeQueueFull:
		return ErrQueueFull
	case serve.CodeShutdown:
		return ErrShutdown
	case serve.CodeCanceled:
		return ErrCanceled
	}
	return nil
}

// Temporary reports whether retrying the same request can succeed (queue
// full, shutting down, gateway hiccups).
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusServiceUnavailable || e.StatusCode >= 502
}

// Client is a typed HTTP client for one simd base URL. It is safe for
// concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration

	// jitter returns a uniform sample in [0, 1); sleepFn blocks for d or
	// until ctx is done. Both are swapped out by tests for a fake clock.
	jitter  func() float64
	sleepFn func(ctx context.Context, d time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom transport,
// timeouts, instrumentation). The default client has no global timeout —
// deadlines come from the per-call contexts.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets how many times transient failures (connection errors,
// 502/503/504) are retried and the base backoff between attempts. The actual
// wait doubles per retry with equal jitter, and waits at least as long as
// any server Retry-After hint. The default is 2 retries, 100 ms.
func WithRetries(n int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = n, backoff }
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8555"; a trailing slash is tolerated).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{},
		retries: 2,
		backoff: 100 * time.Millisecond,
		jitter:  rand.Float64,
		sleepFn: func(ctx context.Context, d time.Duration) error {
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-time.After(d):
				return nil
			}
		},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Submit posts a job. The returned status is either "queued" (HTTP 202) or,
// for content-cache hits, "done" with Cached set (HTTP 200). Queue-full
// rejections (503) are retried with backoff before giving up — submission is
// content-addressed on the server, so a retry can only land the same job.
func (c *Client) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding submission: %w", err)
	}
	var st JobStatus
	if err := c.call(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a job's current envelope (result attached once done).
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches the typed result payload of a finished job. Unfinished or
// non-done jobs surface as an *APIError with status 409.
func (c *Client) Result(ctx context.Context, id string) (*ResultPayload, error) {
	var res ResultPayload
	if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Cancel requests cancellation and returns the job's current (possibly still
// running) status; poll or Wait for the terminal state.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Stats fetches the service's cache/pool/DD counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.call(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls until the job reaches a terminal state or ctx expires. poll ≤ 0
// selects 50 ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case StatusQueued, StatusRunning:
		default:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-t.C:
		}
	}
}

// Stream consumes the job's Server-Sent Events: fn is called for every event
// in order, including the terminal status event, after which Stream fetches
// and returns the job's final envelope. A non-nil error from fn aborts the
// stream and is returned. Dropped connections resume transparently from the
// last seen event (bounded by the server's per-job buffer; a gap surfaces as
// Event.Dropped on the first event after it).
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) (*JobStatus, error) {
	cursor := int64(-1) // seq of the last event seen
	attempt := 0
	for {
		terminal, err := c.streamOnce(ctx, id, &cursor, fn)
		if terminal {
			return c.Status(ctx, id)
		}
		if err == nil {
			err = io.ErrUnexpectedEOF // stream ended without a terminal event
		}
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		var callerErr *callerAbort
		if errors.As(err, &callerErr) {
			return nil, callerErr.err
		}
		if !c.retryable(err) || attempt >= c.retries {
			return nil, err
		}
		if serr := c.sleep(ctx, attempt, err); serr != nil {
			return nil, serr
		}
		attempt++
	}
}

// callerAbort marks an error returned by the caller's event callback, which
// must not be retried.
type callerAbort struct{ err error }

func (e *callerAbort) Error() string { return e.err.Error() }

// streamOnce runs one SSE connection. It advances *cursor past every
// delivered event and reports whether the terminal status event was seen.
func (c *Client) streamOnce(ctx context.Context, id string, cursor *int64, fn func(Event) error) (bool, error) {
	url := c.base + "/v1/jobs/" + id + "/events"
	if *cursor >= 0 {
		url += "?from=" + strconv.FormatInt(*cursor+1, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, decodeAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			return false, fmt.Errorf("client: malformed event: %w", err)
		}
		*cursor = e.Seq
		if err := fn(e); err != nil {
			return false, &callerAbort{err}
		}
		if e.Type == EventStatus {
			return true, nil
		}
	}
	return false, sc.Err()
}

// call performs one JSON request/response cycle with retries for transient
// failures. GETs and DELETEs are idempotent; POST /v1/jobs is retried only
// on temporary API errors (the connection-error case could have submitted,
// but resubmission is content-addressed and therefore safe).
func (c *Client) call(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		lastErr = c.doJSON(req, out)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil || !c.retryable(lastErr) || attempt >= c.retries {
			return lastErr
		}
		if err := c.sleep(ctx, attempt, lastErr); err != nil {
			return err
		}
	}
}

func (c *Client) doJSON(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

func (c *Client) retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	// Everything else at this point is a transport-level failure.
	var abort *callerAbort
	return !errors.As(err, &abort)
}

// sleep backs off before retry number attempt. The base delay is exponential
// (backoff << attempt) with equal jitter — half deterministic, half uniform —
// so a fleet of clients rejected together does not retry together. When the
// failure carried a server Retry-After hint, the wait is at least that long
// (plus the random half, keeping the herd spread).
func (c *Client) sleep(ctx context.Context, attempt int, lastErr error) error {
	return c.sleepFn(ctx, c.delay(attempt, lastErr))
}

func (c *Client) delay(attempt int, lastErr error) time.Duration {
	base := c.backoff << attempt
	if base <= 0 {
		base = time.Millisecond
	}
	spread := time.Duration(c.jitter() * float64(base/2))
	d := base/2 + spread
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 && apiErr.RetryAfter+spread > d {
		d = apiErr.RetryAfter + spread
	}
	return d
}

func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env struct {
		Error        string `json:"error"`
		Status       string `json:"status"`
		Code         string `json:"code"`
		RetryAfterMS int64  `json:"retry_after_ms"`
		QueueDepth   int    `json:"queue_depth"`
	}
	msg := strings.TrimSpace(string(raw))
	if err := json.Unmarshal(raw, &env); err == nil {
		switch {
		case env.Error != "" && env.Status != "":
			msg = env.Status + ": " + env.Error
		case env.Error != "":
			msg = env.Error
		case env.Status != "":
			msg = env.Status
		}
	}
	ra := time.Duration(env.RetryAfterMS) * time.Millisecond
	if ra == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Message:    msg,
		Code:       env.Code,
		RetryAfter: ra,
		QueueDepth: env.QueueDepth,
	}
}
