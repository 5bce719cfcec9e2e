package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// RetryPolicy configures the client's backoff on retryable failures:
// transport errors and backpressure rejections (queue_full,
// rate_limited, draining, shutting_down — HTTP 429/503). Waits grow
// exponentially from BaseDelay, capped at MaxDelay, with ±50% jitter so
// a fleet of rejected clients does not re-arrive in lockstep; a server
// Retry-After is honored (up to MaxDelay) when it exceeds the backoff.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (0 = 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (0 = 100ms).
	BaseDelay time.Duration
	// MaxDelay caps each wait, including honored Retry-After advice
	// (0 = 10s).
	MaxDelay time.Duration
}

// DefaultRetry is a ready-made policy for CLI and load-generation use.
var DefaultRetry = &RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second}

// Client is a thin typed client for a capxd server; capx -remote rides
// it. The zero HTTPClient means http.DefaultClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8437".
	BaseURL string
	// HTTPClient optionally overrides the transport.
	HTTPClient *http.Client
	// Tenant, when set, is sent as the X-Tenant header so the server's
	// per-tenant rate limits attribute this client's traffic.
	Tenant string
	// Retry, when set, retries transport errors and backpressure
	// rejections with capped exponential backoff. Safe on every
	// endpoint: extracts are stateless reads of shared caches, and
	// ExtractAsync sends an idempotency key, so a retried submit whose
	// original 202 was lost in flight can never double-run the job.
	Retry *RetryPolicy
	// OnRetry, when set, observes each backoff before the wait:
	// the upcoming attempt number (2 = first retry), the wait, whether
	// it came from server Retry-After advice, and the error being
	// retried.
	OnRetry func(attempt int, wait time.Duration, honored bool, err error)
}

// NewClient creates a client for the given base URL.
func NewClient(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do sends one request (rebuilt per attempt by mk, so bodies replay)
// under the retry policy. Non-2xx responses come back as their decoded
// structured error.
func (c *Client) do(ctx context.Context, mk func() (*http.Request, error)) (*http.Response, error) {
	pol := c.Retry
	attempts, base, maxWait := 1, 100*time.Millisecond, 10*time.Second
	if pol != nil {
		attempts = pol.MaxAttempts
		if attempts <= 0 {
			attempts = 4
		}
		if pol.BaseDelay > 0 {
			base = pol.BaseDelay
		}
		if pol.MaxDelay > 0 {
			maxWait = pol.MaxDelay
		}
	}
	for attempt := 1; ; attempt++ {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := c.http().Do(req)
		if err == nil && resp.StatusCode < 300 {
			return resp, nil
		}
		if err == nil {
			derr := decodeError(resp)
			resp.Body.Close()
			err = derr
		}
		if attempt >= attempts || !retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		wait, honored := backoffWait(base, maxWait, attempt, retryAfterOf(err))
		if c.OnRetry != nil {
			c.OnRetry(attempt+1, wait, honored, err)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// backoffWait computes the wait before retry number attempt (1 = first
// retry): exponential from base with saturating doubling (a huge
// attempt count can never overflow into a negative Duration), capped at
// maxWait, then jittered down by up to 50% so a fleet of rejected
// clients does not re-arrive in lockstep. Server Retry-After advice
// overrides the backoff when longer, and advice at or above maxWait is
// always honored at maxWait (honored=true), but every outcome —
// including zero, negative or malformed advice, which parses as 0 — is
// clamped into [floor, maxWait] where floor is half the base delay: a
// misbehaving server can slow this client down, never spin it into a hot
// retry loop.
func backoffWait(base, maxWait time.Duration, attempt int, advice time.Duration) (wait time.Duration, honored bool) {
	wait = base
	for i := 1; i < attempt; i++ {
		if wait >= maxWait/2 {
			wait = maxWait
			break
		}
		wait *= 2
	}
	if wait > maxWait {
		wait = maxWait
	}
	wait = wait/2 + time.Duration(mrand.Int63n(int64(wait/2)+1))
	if advice > wait || advice >= maxWait {
		honored = true
		wait = advice
	}
	floor := base / 2
	if floor > maxWait {
		floor = maxWait
	}
	if wait > maxWait {
		wait = maxWait
	}
	if wait < floor {
		wait = floor
	}
	return wait, honored
}

// retryable reports whether an attempt's failure is worth repeating:
// transport errors (the request may never have arrived) and structured
// backpressure rejections. Permanent rejections — bad requests,
// extraction failures, deadline expiry — are not.
func retryable(err error) bool {
	var re *RequestError
	if errors.As(err, &re) {
		switch re.Code {
		case CodeQueueFull, CodeRateLimited, CodeDraining, CodeShuttingDown:
			return true
		}
		return false
	}
	// Anything that never produced a structured response: connection
	// refused/reset, or a bare 429/503 from an intermediary.
	var herr *httpStatusError
	if errors.As(err, &herr) {
		return herr.status == http.StatusTooManyRequests || herr.status == http.StatusServiceUnavailable
	}
	return true
}

// retryAfterOf extracts the server's Retry-After advice from a
// structured or bare-HTTP error (0 = none).
func retryAfterOf(err error) time.Duration {
	var re *RequestError
	if errors.As(err, &re) && re.RetryAfterSec > 0 {
		return saturatingDuration(re.RetryAfterSec, time.Second)
	}
	var herr *httpStatusError
	if errors.As(err, &herr) {
		return herr.retryAfter
	}
	return 0
}

// httpStatusError is a non-2xx response that carried no structured
// envelope (a proxy 503, a truncated body).
type httpStatusError struct {
	status     int
	body       string
	retryAfter time.Duration
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.status, e.body)
}

// post sends one JSON request and returns the raw response; non-2xx
// responses are decoded into their structured error.
func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if c.Tenant != "" {
			req.Header.Set("X-Tenant", c.Tenant)
		}
		return req, nil
	})
}

// get sends one GET and decodes the JSON response into v.
func (c *Client) get(ctx context.Context, path string, v any) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// decodeError maps a non-2xx response to its *RequestError, folding a
// bare Retry-After header into the structured advice when the body
// carried none.
func decodeError(resp *http.Response) error {
	ra := parseRetryAfter(resp.Header.Get("Retry-After"))
	var env errorEnvelope
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &env) == nil && env.Error != nil {
		if env.Error.RetryAfterSec == 0 && ra > 0 {
			env.Error.RetryAfterSec = ra.Seconds()
		}
		return env.Error
	}
	return &httpStatusError{status: resp.StatusCode, body: strings.TrimSpace(string(data)), retryAfter: ra}
}

// parseRetryAfter reads a delay-seconds Retry-After value (the only
// form capxd emits; HTTP-date forms are ignored). A value past int64
// saturates like one past time.Duration's range.
func parseRetryAfter(v string) time.Duration {
	sec, err := strconv.ParseInt(v, 10, 64)
	if sec <= 0 || (err != nil && !errors.Is(err, strconv.ErrRange)) {
		return 0
	}
	return saturatingDuration(float64(sec), time.Second)
}

// saturatingDuration converts a positive count of units to a Duration,
// saturating at the largest one instead of overflowing into a negative
// or short wait.
func saturatingDuration(n float64, unit time.Duration) time.Duration {
	if ns := n * float64(unit); ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// newIdemKey generates a random idempotency key for an async submit.
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to math/rand: a weaker key only weakens dedup of
		// this client's own retries, never correctness.
		return fmt.Sprintf("idem-%016x", mrand.Uint64())
	}
	return "idem-" + hex.EncodeToString(b[:])
}

// Extract runs one synchronous extraction (req.Async must be false; use
// ExtractAsync to enqueue).
func (c *Client) Extract(ctx context.Context, req *ExtractRequest) (*ExtractResponse, error) {
	resp, err := c.post(ctx, "/extract", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out ExtractResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: bad extract response: %w", err)
	}
	return &out, nil
}

// ExtractAsync enqueues an extraction and returns its job id. When the
// request carries no idempotency key, a random one is generated, so a
// retried submit (lost 202, transport error) resolves to the same job
// instead of double-running. Only serve's and cmd/capxd's tests call it.
func (c *Client) ExtractAsync(ctx context.Context, req *ExtractRequest) (string, error) {
	r := *req
	r.Async = true
	if r.IdempotencyKey == "" {
		r.IdempotencyKey = newIdemKey()
	}
	resp, err := c.post(ctx, "/extract", &r)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("serve: bad async response: %w", err)
	}
	return out.JobID, nil
}

// Job fetches a job's status and result (serve's and cmd/capxd's tests).
func (c *Client) Job(ctx context.Context, id string) (*JobResponse, error) {
	var out JobResponse
	if err := c.get(ctx, "/jobs/"+id, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep streams a sweep; point is called once per streamed point, in
// order. The returned trailer summarizes the sweep (point errors do not
// fail the call — inspect SweepPoint.Error).
func (c *Client) Sweep(ctx context.Context, req *SweepRequest, point func(*SweepPoint)) (*SweepTrailer, error) {
	resp, err := c.post(ctx, "/sweep", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// NDJSON is a stream of concatenated JSON values; a json.Decoder
	// consumes it without any line-length cap (one point's c_farads for
	// a large admissible conductor count can exceed tens of MB).
	dec := json.NewDecoder(resp.Body)
	first := true
	for {
		var line json.RawMessage
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("serve: bad sweep stream: %w", err)
		}
		if first {
			first = false
			var hdr SweepHeader
			if err := json.Unmarshal(line, &hdr); err != nil {
				return nil, fmt.Errorf("serve: bad sweep header: %w", err)
			}
			continue
		}
		// A trailer line carries done=true; a whole-sweep failure
		// arrives as a bare error envelope in its place. Point lines
		// always carry "index" — a per-point error is not a sweep
		// failure.
		var probe struct {
			Done  bool          `json:"done"`
			Index *int          `json:"index"`
			Error *RequestError `json:"error"`
		}
		if json.Unmarshal(line, &probe) == nil {
			if probe.Done {
				var tr SweepTrailer
				if err := json.Unmarshal(line, &tr); err != nil {
					return nil, fmt.Errorf("serve: bad sweep trailer: %w", err)
				}
				return &tr, nil
			}
			if probe.Index == nil && probe.Error != nil {
				return nil, probe.Error
			}
		}
		var p SweepPoint
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, fmt.Errorf("serve: bad sweep point: %w", err)
		}
		if point != nil {
			point(&p)
		}
	}
	return nil, fmt.Errorf("serve: sweep stream ended without a trailer")
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]any
	return c.get(ctx, "/healthz", &out)
}
