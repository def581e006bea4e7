package optsched

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/verify"
)

// VerifyRequest is one submission to the verification service (see
// internal/service; the daemon is cmd/schedverifyd): a policy by
// registered name or as DSL source, an optional universe and an
// optional obligation subset.
type VerifyRequest = service.Request

// VerifyServiceUniverse converts a Universe to its wire form.
var VerifyServiceUniverse = service.UniverseSpecOf

// ErrCircuitOpen is returned by VerifyClient when its circuit breaker
// is open: enough consecutive request failures (transport errors or
// 5xx responses) that the daemon is presumed down, so calls fail fast
// instead of hammering it. The breaker opens after 5 consecutive
// failures and half-opens after a 10s cooldown; a Cluster built with
// WithVerifyService falls back to local in-process verification while
// the breaker is open.
var ErrCircuitOpen = errors.New("optsched: verify service circuit breaker open")

// VerifyClient talks to a running schedverifyd daemon — the third way
// to verify a policy, next to Cluster.Verify and the schedverify CLI. The zero value is not usable; set BaseURL. A client
// is safe for concurrent use and should be reused: the circuit breaker
// accumulates state across calls.
//
// Verify submits and blocks until a verdict, resiliently:
//
//   - The submit asks the daemon to hold it until the job's verdict
//     (?wait=30s), so a cold verdict is one round trip: the submit's 200
//     carries it. Only a job that outlasts the wait answers 202, and is
//     then polled at once, at the poll URL the daemon handed out, which
//     long-polls the same way. The client lowers either wait to half its
//     HTTPClient.Timeout when the timeout is shorter. Against a daemon
//     that answers polls at once, polls are spaced by jittered
//     exponential backoff from PollInterval up to MaxPollInterval — each
//     sleep net of the time the previous poll itself took, so neither
//     kind of daemon needs detecting.
//   - 429 backpressure honors the server's Retry-After (jittered).
//   - Transport errors and 5xx responses retry with jittered backoff
//     from 100ms, doubling per consecutive failure up to
//     MaxPollInterval, until the circuit breaker opens (5 consecutive
//     failures), after which calls return ErrCircuitOpen immediately
//     until a 10s cooldown elapses and a half-open probe succeeds.
//   - A ctx deadline propagates to the daemon (Request.TimeoutMs), so
//     a queued job dies server-side when its client stops caring.
//
// The returned Report is decoded in place with the daemon's envelope,
// and only a report of exactly the requested obligations, in request
// order, is a verdict. Re-encoding it with ReportToJSON reproduces the
// bytes `schedverify -json` prints.
type VerifyClient struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval is the initial spacing between job polls that come
	// back non-terminal (default 25ms); each subsequent one backs off
	// exponentially with full jitter. The first poll is never delayed.
	PollInterval time.Duration
	// MaxPollInterval caps the poll backoff and the retry backoff
	// (default 2s).
	MaxPollInterval time.Duration

	// The retry and breaker settings; zero takes the default. Only
	// tests shorten them.
	retryBase        time.Duration // the first backoff after a failed request (100ms)
	breakerThreshold int           // the consecutive failures that open the breaker (5)
	breakerCooldown  time.Duration // how long the breaker stays open before a half-open probe (10s)

	mu        sync.Mutex
	fails     int
	openUntil time.Time
}

// positiveOr is v when it is positive, def otherwise: a zero or negative
// setting takes the default.
func positiveOr[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

func (c *VerifyClient) httpClient() *http.Client { return cmp.Or(c.HTTPClient, http.DefaultClient) }

func (c *VerifyClient) pollInterval() time.Duration {
	return positiveOr(c.PollInterval, 25*time.Millisecond)
}

func (c *VerifyClient) maxPollInterval() time.Duration {
	return positiveOr(c.MaxPollInterval, 2*time.Second)
}

func (c *VerifyClient) firstRetry() time.Duration {
	return positiveOr(c.retryBase, 100*time.Millisecond)
}

func (c *VerifyClient) tripAfter() int { return positiveOr(c.breakerThreshold, 5) }

func (c *VerifyClient) cooldown() time.Duration {
	return positiveOr(c.breakerCooldown, 10*time.Second)
}

// backoffDelay is the attempt-th (0-based) delay of an exponential
// backoff from base, capped, with full jitter in [d/2, d): retries from
// many clients spread out instead of thundering in lockstep.
func backoffDelay(attempt int, base, cap time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(rand.Int64N(int64(half)))
	}
	return d
}

// breakerOpen reports whether calls must fail fast right now. After the
// cooldown it lets one probe through (half-open): the failure count
// stays at the threshold, so the next recordFailure re-opens
// immediately and the next recordSuccess closes fully.
func (c *VerifyClient) breakerOpen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fails >= c.tripAfter() && time.Now().Before(c.openUntil)
}

// recordFailure counts one failed request and reports whether the
// breaker is now open.
func (c *VerifyClient) recordFailure() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails++
	if c.fails >= c.tripAfter() {
		c.openUntil = time.Now().Add(c.cooldown())
		return true
	}
	return false
}

func (c *VerifyClient) recordSuccess() {
	c.mu.Lock()
	c.fails = 0
	c.openUntil = time.Time{}
	c.mu.Unlock()
}

// Verify submits req and blocks until the daemon produces a report,
// honoring ctx throughout (a cancelled wait or poll loop also cancels
// the remote job — queued work is not left behind). See the type comment
// for the retry, backoff and circuit-breaker behavior.
func (c *VerifyClient) Verify(ctx context.Context, req VerifyRequest) (*Report, error) {
	if deadline, ok := ctx.Deadline(); ok && req.TimeoutMs == 0 {
		if remain := time.Until(deadline); remain > 0 {
			req.TimeoutMs = int64(remain / time.Millisecond)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("optsched: encoding verify request: %w", err)
	}
	submitURL := c.fitWait(submitPath)
	attempt := 0
	for {
		if c.breakerOpen() {
			return nil, fmt.Errorf("%w (%s)", ErrCircuitOpen, c.BaseURL)
		}
		resp, err := c.do(ctx, http.MethodPost, submitURL, body, nil)
		if err != nil && ctx.Err() != nil {
			return nil, err
		}
		switch {
		case err != nil || resp.code >= 500:
			if c.recordFailure() {
				return nil, fmt.Errorf("%w (last %s)", ErrCircuitOpen, failure(err, resp))
			}
			if err := sleepCtx(ctx, backoffDelay(attempt, c.firstRetry(), c.maxPollInterval())); err != nil {
				return nil, err
			}
			attempt++
		case resp.code == http.StatusOK:
			c.recordSuccess()
			rep, _, err := settle(&resp.envelope, req.Obligations)
			return rep, err
		case resp.code == http.StatusAccepted:
			c.recordSuccess()
			return c.poll(ctx, resp.envelope.Poll, resp.envelope.JobID, req.Obligations)
		case resp.code == http.StatusTooManyRequests:
			// Backpressure is health, not failure: obey the server's
			// Retry-After (plus jitter so resubmissions spread out) and
			// leave the breaker alone.
			if err := sleepCtx(ctx, jitter(resp.retryAfter)); err != nil {
				return nil, err
			}
		default:
			// 4xx: the request itself is bad; retrying cannot help.
			return nil, fmt.Errorf("optsched: verify service: %s", resp.errMsg())
		}
	}
}

// submitPath is where a submission goes: it asks the daemon to hold the
// answer until the verdict, for as long as the daemon holds a poll.
const submitPath = "/v1/verify?wait=30s"

// failure describes a failed request, a transport error or a 5xx
// response, for the error that opens the breaker.
func failure(err error, resp *clientResp) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "response: " + resp.errMsg()
}

// jitter spreads d over [d/2, 3d/2).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// poll drives one queued job to completion. The first poll goes out at
// once; after a poll that came back without a verdict the next one waits
// out what is left of the jittered exponential backoff once the time the
// poll itself took is taken off — nothing when the daemon held the poll
// (a long-poll), the whole backoff when it answered at once.
func (c *VerifyClient) poll(ctx context.Context, pollURL, jobID string, obligations []string) (*Report, error) {
	if pollURL == "" {
		pollURL = "/v1/jobs/" + jobID
	}
	pollURL = c.fitWait(pollURL)
	var took time.Duration
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoffDelay(attempt-1, c.pollInterval(), c.maxPollInterval())-took); err != nil {
				c.cancelRemote(pollURL)
				return nil, err
			}
		}
		if c.breakerOpen() {
			c.cancelRemote(pollURL)
			return nil, fmt.Errorf("%w (abandoning job %s)", ErrCircuitOpen, jobID)
		}
		start := time.Now()
		resp, err := c.do(ctx, http.MethodGet, pollURL, nil, nil)
		took = time.Since(start)
		if err != nil && ctx.Err() != nil {
			c.cancelRemote(pollURL)
			return nil, err
		}
		switch {
		case err != nil || resp.code >= 500:
			if c.recordFailure() {
				c.cancelRemote(pollURL)
				return nil, fmt.Errorf("%w (last %s)", ErrCircuitOpen, failure(err, resp))
			}
			continue
		case resp.code != http.StatusOK:
			return nil, fmt.Errorf("optsched: verify service: %s", resp.errMsg())
		}
		c.recordSuccess()
		if rep, settled, err := settle(&resp.envelope, obligations); settled {
			return rep, err
		}
	}
}

// settle reads a 200 envelope, the submit's or a poll's: a done job's
// report is the verdict and a cancelled job is an error. Anything else
// (a job still queued or running) is not settled, and err says so for a
// caller that expected a verdict.
func settle(env *service.SubmitResponse, obligations []string) (rep *Report, settled bool, err error) {
	switch env.Status {
	case string(service.JobDone):
		rep, err = decodeReport(env, obligations)
		return rep, true, err
	case string(service.JobCancelled):
		return nil, true, fmt.Errorf("optsched: verify job %s cancelled: %s", env.JobID, env.Error)
	}
	return nil, false, fmt.Errorf("optsched: verify service answered %q without a verdict", env.Status)
}

// fitWait lowers the wait a submit or poll URL asks the daemon for to
// half the HTTP client's own timeout when it is longer than that — the
// one thing the client knows and the daemon does not — so a long job is
// a series of unanswered long-polls, never a series of transport
// timeouts that trip the breaker. A URL without a wait parameter is left
// as it is.
func (c *VerifyClient) fitWait(pollURL string) string {
	timeout := c.httpClient().Timeout
	if timeout <= 0 {
		return pollURL
	}
	u, err := url.Parse(pollURL)
	if err != nil {
		return pollURL
	}
	q := u.Query()
	if wait, err := time.ParseDuration(q.Get("wait")); err != nil || wait <= timeout/2 {
		return pollURL
	}
	q.Set("wait", (timeout / 2).String())
	u.RawQuery = q.Encode()
	return u.String()
}

// cancelRemote best-effort cancels an abandoned job so queued work is
// not left behind.
func (c *VerifyClient) cancelRemote(pollURL string) {
	cancelCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	c.do(cancelCtx, http.MethodDelete, pollURL, nil, nil)
	cancel()
}

// FlushCache performs the daemon's admin cache flush (DELETE /v1/cache)
// and returns how many memoized results were dropped.
func (c *VerifyClient) FlushCache(ctx context.Context) (int, error) {
	var out struct {
		Flushed int    `json:"flushed"`
		Error   string `json:"error"`
	}
	resp, err := c.do(ctx, http.MethodDelete, "/v1/cache", nil, &out)
	if err != nil {
		return 0, err
	}
	if resp.rawError != "" || resp.code != http.StatusOK {
		return out.Flushed, fmt.Errorf("optsched: cache flush: %s", cmp.Or(out.Error, resp.errMsg()))
	}
	return out.Flushed, nil
}

// clientResp is one decoded daemon response.
type clientResp struct {
	code       int
	envelope   service.SubmitResponse
	retryAfter time.Duration
	rawError   string
}

func (r *clientResp) errMsg() string {
	if r.envelope.Error != "" {
		return r.envelope.Error
	}
	if r.rawError != "" {
		return r.rawError
	}
	return fmt.Sprintf("HTTP %d", r.code)
}

// bodies recycles the buffers do reads response bodies into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do sends one request and decodes its response's JSON body into dst, or
// into the envelope when dst is nil. The body is read into a recycled
// buffer; what decoding keeps of it is copied out.
func (c *VerifyClient) do(ctx context.Context, method, path string, body []byte, dst any) (*clientResp, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	httpReq, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("optsched: verify service unreachable: %w", err)
	}
	defer httpResp.Body.Close()
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(httpResp.Body); err != nil {
		return nil, err
	}
	resp := &clientResp{code: httpResp.StatusCode}
	if ra := httpResp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			resp.retryAfter = time.Duration(secs) * time.Second
		}
	}
	if resp.retryAfter == 0 {
		resp.retryAfter = time.Second
	}
	if dst == nil {
		dst = &resp.envelope
	}
	if err := json.Unmarshal(buf.Bytes(), dst); err != nil {
		// Error responses are {"error": "..."} maps, which also land in
		// envelope.Error; anything else is reported raw.
		resp.rawError = buf.String()
	}
	return resp, nil
}

// decodeReport checks a done envelope's report: known obligations, exactly
// the requested ones in request order (all when the request names none).
// An empty or partial report is an error, never a PROVED verdict.
func decodeReport(env *service.SubmitResponse, obligations []string) (*Report, error) {
	rep := env.Report
	if rep == nil {
		return nil, fmt.Errorf("optsched: verify service sent a done response without a report")
	}
	if err := verify.CheckObligationIDs(rep); err != nil {
		return nil, fmt.Errorf("optsched: verify service: %w", err)
	}
	want := verify.AllObligations()
	if len(obligations) > 0 {
		want = make([]verify.ObligationID, len(obligations))
		for i, name := range obligations {
			want[i] = verify.ObligationID(name)
		}
	}
	if !slices.EqualFunc(rep.Results, want, func(r verify.Result, id verify.ObligationID) bool { return r.ID == id }) {
		return nil, fmt.Errorf("optsched: verify service sent %d results that are not the %d requested obligations in request order", len(rep.Results), len(want))
	}
	return rep, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ReportToJSON renders a report in the canonical JSON form shared by
// the daemon, the client and `schedverify -json`; equal reports always
// produce byte-identical documents.
var ReportToJSON = verify.ReportJSON
