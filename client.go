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

// Incremental verification service types (see internal/service). The
// daemon itself is cmd/schedverifyd; NewVerifyService embeds the same
// engine in-process.
type (
	// VerifyRequest is one submission to the verification service: a
	// policy by registered name or as DSL source, an optional universe
	// and an optional obligation subset.
	VerifyRequest = service.Request
	// VerifyUniverse is the wire form of a bounded universe.
	VerifyUniverse = service.UniverseSpec
	// VerifyStats is the service's /v1/stats snapshot: cache hit/miss
	// counters, queue depth, per-obligation checker latency and — when
	// the daemon runs with -data-dir — the durable store's counters.
	VerifyStats = service.Stats
	// VerifyService is the embeddable incremental verifier behind
	// cmd/schedverifyd.
	VerifyService = service.Service
	// VerifyServiceConfig parameterizes a VerifyService.
	VerifyServiceConfig = service.Config
)

// NewVerifyService starts an in-process incremental verifier — the
// engine cmd/schedverifyd serves over HTTP. Close it when done. It
// returns an error only when VerifyServiceConfig.DataDir names an
// unusable durable-store directory (corruption there recovers, it never
// errors).
var NewVerifyService = service.New

// VerifyServiceUniverse converts a Universe to its wire form.
var VerifyServiceUniverse = service.UniverseSpecOf

// ErrCircuitOpen is returned by VerifyClient when its circuit breaker
// is open: enough consecutive request failures (transport errors or
// 5xx responses) that the daemon is presumed down, so calls fail fast
// instead of hammering it. The breaker half-opens after
// BreakerCooldown; a Cluster built with WithVerifyService falls back to
// local in-process verification while the breaker is open.
var ErrCircuitOpen = errors.New("optsched: verify service circuit breaker open")

// VerifyClient talks to a running schedverifyd daemon — the third way
// to verify a policy, next to Cluster.Verify and the schedverify CLI. The zero value is not usable; set BaseURL. A client
// is safe for concurrent use and should be reused: the circuit breaker
// accumulates state across calls.
//
// Verify submits and blocks until a verdict, resiliently:
//
//   - A queued job is polled at once, at the poll URL the daemon handed
//     out. A daemon that long-polls (the URL carries ?wait=) holds each
//     poll until the verdict, so there is one poll per job and no timer
//     between the verdict and the caller; the client only lowers that
//     wait to half its HTTPClient.Timeout when the timeout is shorter.
//     Against a daemon that answers polls at once, polls are spaced by
//     jittered exponential backoff from PollInterval up to
//     MaxPollInterval — each sleep net of the time the previous poll
//     itself took, so neither kind of daemon needs detecting.
//   - 429 backpressure honors the server's Retry-After (jittered).
//   - Transport errors and 5xx responses retry with jittered backoff
//     until the circuit breaker opens (BreakerThreshold consecutive
//     failures), after which calls return ErrCircuitOpen immediately
//     until BreakerCooldown elapses and a half-open probe succeeds.
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
	// MaxPollInterval caps the poll backoff (default 2s).
	MaxPollInterval time.Duration
	// RetryBase is the initial backoff after a failed request
	// (default 100ms); it doubles per consecutive failure, jittered,
	// capped at MaxPollInterval.
	RetryBase time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before a
	// half-open probe (default 10s).
	BreakerCooldown time.Duration

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

func (c *VerifyClient) retryBase() time.Duration {
	return positiveOr(c.RetryBase, 100*time.Millisecond)
}

func (c *VerifyClient) breakerThreshold() int { return positiveOr(c.BreakerThreshold, 5) }

func (c *VerifyClient) breakerCooldown() time.Duration {
	return positiveOr(c.BreakerCooldown, 10*time.Second)
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
	return c.fails >= c.breakerThreshold() && time.Now().Before(c.openUntil)
}

// recordFailure counts one failed request and reports whether the
// breaker is now open.
func (c *VerifyClient) recordFailure() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails++
	if c.fails >= c.breakerThreshold() {
		c.openUntil = time.Now().Add(c.breakerCooldown())
		return true
	}
	return false
}

// BreakerState is a point-in-time snapshot of a VerifyClient's circuit
// breaker, for dashboards and tests (see Cluster.VerifyServiceStatus).
type BreakerState struct {
	// State is "closed" (requests flow), "open" (calls fail fast with
	// ErrCircuitOpen) or "half-open" (the cooldown elapsed; the next
	// call is a probe that fully closes or re-opens the breaker).
	State string
	// ConsecutiveFailures is the current run of failed requests; it
	// resets to zero on any success.
	ConsecutiveFailures int
}

// Breaker returns the circuit breaker's current state. The snapshot is
// advisory — the breaker may transition immediately after.
func (c *VerifyClient) Breaker() BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := BreakerState{ConsecutiveFailures: c.fails}
	switch {
	case c.fails < c.breakerThreshold():
		st.State = "closed"
	case time.Now().Before(c.openUntil):
		st.State = "open"
	default:
		st.State = "half-open"
	}
	return st
}

func (c *VerifyClient) recordSuccess() {
	c.mu.Lock()
	c.fails = 0
	c.openUntil = time.Time{}
	c.mu.Unlock()
}

// Verify submits req and blocks until the daemon produces a report,
// honoring ctx throughout (a cancelled poll loop also cancels the
// remote job — queued work is not left behind). See the type comment
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
	attempt := 0
	for {
		if c.breakerOpen() {
			return nil, fmt.Errorf("%w (%s)", ErrCircuitOpen, c.BaseURL)
		}
		resp, err := c.do(ctx, http.MethodPost, "/v1/verify", body)
		if err != nil && ctx.Err() != nil {
			return nil, err
		}
		switch {
		case err != nil || resp.code >= 500:
			if c.recordFailure() {
				return nil, fmt.Errorf("%w (last %s)", ErrCircuitOpen, failure(err, resp))
			}
			if err := sleepCtx(ctx, backoffDelay(attempt, c.retryBase(), c.maxPollInterval())); err != nil {
				return nil, err
			}
			attempt++
		case resp.code == http.StatusOK:
			c.recordSuccess()
			return decodeReport(resp.envelope, req.Obligations)
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
		resp, err := c.do(ctx, http.MethodGet, pollURL, nil)
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
		switch resp.envelope.Status {
		case string(service.JobDone):
			return decodeReport(resp.envelope, obligations)
		case string(service.JobCancelled):
			return nil, fmt.Errorf("optsched: verify job %s cancelled: %s", jobID, resp.envelope.Error)
		}
	}
}

// fitWait lowers the wait a poll URL asks the daemon for to half the
// HTTP client's own timeout when it is longer than that — the one thing
// the client knows and the daemon does not — so a long job is a series
// of unanswered long-polls, never a series of transport timeouts that
// trip the breaker. A URL without a wait parameter is left as it is.
func (c *VerifyClient) fitWait(pollURL string) string {
	timeout := c.httpClient().Timeout
	u, err := url.Parse(pollURL)
	if timeout <= 0 || err != nil {
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
	c.do(cancelCtx, http.MethodDelete, pollURL, nil)
	cancel()
}

// Stats fetches the daemon's counter snapshot.
func (c *VerifyClient) Stats(ctx context.Context) (*VerifyStats, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	if resp.code != http.StatusOK {
		return nil, fmt.Errorf("optsched: verify service stats: HTTP %d", resp.code)
	}
	var st VerifyStats
	if err := json.Unmarshal(resp.raw, &st); err != nil {
		return nil, fmt.Errorf("optsched: decoding stats: %w", err)
	}
	return &st, nil
}

// FlushCache performs the daemon's admin cache flush (DELETE /v1/cache)
// and returns how many memoized results were dropped.
func (c *VerifyClient) FlushCache(ctx context.Context) (int, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/cache", nil)
	if err != nil {
		return 0, err
	}
	var out struct {
		Flushed int    `json:"flushed"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(resp.raw, &out); err != nil || resp.code != http.StatusOK {
		return out.Flushed, fmt.Errorf("optsched: cache flush: %s", resp.errMsg())
	}
	return out.Flushed, nil
}

// clientResp is one decoded daemon response.
type clientResp struct {
	code       int
	envelope   service.SubmitResponse
	retryAfter time.Duration
	raw        []byte
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

func (c *VerifyClient) do(ctx context.Context, method, path string, body []byte) (*clientResp, error) {
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
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	resp := &clientResp{code: httpResp.StatusCode, raw: data}
	if ra := httpResp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			resp.retryAfter = time.Duration(secs) * time.Second
		}
	}
	if resp.retryAfter == 0 {
		resp.retryAfter = time.Second
	}
	if err := json.Unmarshal(data, &resp.envelope); err != nil {
		// Error responses are {"error": "..."} maps, which also land in
		// envelope.Error; anything else is reported raw.
		resp.rawError = string(data)
	}
	return resp, nil
}

// decodeReport checks a done envelope's report: known obligations, exactly
// the requested ones in request order (all when the request names none).
// An empty or partial report is an error, never a PROVED verdict.
func decodeReport(env service.SubmitResponse, obligations []string) (*Report, error) {
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

// Report JSON codec: the deterministic encoding shared by the daemon,
// the client and `schedverify -json`.
var (
	// ReportToJSON renders a report in the service's canonical JSON form;
	// equal reports always produce byte-identical documents.
	ReportToJSON = verify.ReportJSON
	// ReportFromJSON is its inverse.
	ReportFromJSON = verify.ReportFromJSON
)
