package optsched

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/faultinject"
	"repro/internal/verify"
)

// newService starts an in-process verification service.
func newService(t *testing.T, cfg service.Config, opts ...service.Option) *service.Service {
	t.Helper()
	svc, err := service.New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// doneEnvelope renders the daemon's 200 response for a minimal finished
// report of every obligation, the answer to a request that names none.
func doneEnvelope(t *testing.T) []byte {
	t.Helper()
	rep := &verify.Report{Policy: "p", Universe: "u"}
	for _, id := range verify.AllObligations() {
		rep.Results = append(rep.Results, verify.Result{ID: id, Passed: true, StatesChecked: 7})
	}
	passed := true
	env, err := json.Marshal(service.SubmitResponse{Status: "done", Cached: true, Passed: &passed, Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// fastClient returns a client tuned so retry loops resolve in
// milliseconds.
func fastClient(baseURL string) *VerifyClient {
	return &VerifyClient{
		BaseURL:          baseURL,
		PollInterval:     time.Millisecond,
		MaxPollInterval:  4 * time.Millisecond,
		retryBase:        time.Millisecond,
		breakerThreshold: 3,
		breakerCooldown:  time.Hour,
	}
}

func TestVerifyClientBreakerOpensAndFailsFast(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	_, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2"})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Verify against a failing daemon returned %v, want ErrCircuitOpen", err)
	}
	if got := hits.Load(); got != int64(c.breakerThreshold) {
		t.Errorf("breaker opened after %d requests, want %d", got, c.breakerThreshold)
	}
	// While open, calls fail fast without touching the daemon.
	if _, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v", err)
	}
	if got := hits.Load(); got != int64(c.breakerThreshold) {
		t.Errorf("open breaker still sent a request (%d total)", got)
	}
}

func TestVerifyClientBreakerHalfOpenRecovery(t *testing.T) {
	env := doneEnvelope(t)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Write(env)
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	c.breakerThreshold = 2
	c.breakerCooldown = 20 * time.Millisecond
	if _, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("first Verify returned %v, want ErrCircuitOpen", err)
	}
	time.Sleep(30 * time.Millisecond) // past the cooldown: half-open
	rep, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2"})
	if err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if rep.Policy != "p" || !rep.Passed() {
		t.Errorf("recovered report %+v", rep)
	}
	if hits.Load() != 3 {
		t.Errorf("recovery took %d requests, want 3 (2 failures + 1 probe)", hits.Load())
	}
	if c.fails != 0 {
		t.Errorf("successful probe left the breaker at %d failures, want fully closed", c.fails)
	}
}

func TestVerifyClientHonorsRetryAfterOn429(t *testing.T) {
	env := doneEnvelope(t)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.Write(env)
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	start := time.Now()
	rep, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2"})
	if err != nil || !rep.Passed() {
		t.Fatalf("Verify after backpressure: rep=%v err=%v", rep, err)
	}
	// The jittered Retry-After sleep is in [500ms, 1.5s).
	if took := time.Since(start); took < 450*time.Millisecond {
		t.Errorf("resubmitted after %v, ignoring Retry-After: 1", took)
	}
	if hits.Load() != 2 {
		t.Errorf("429 handling took %d requests, want 2", hits.Load())
	}
	if c.fails != 0 {
		t.Errorf("backpressure counted as %d failures toward the breaker, want 0", c.fails)
	}
}

func TestVerifyClientPollsQueuedJobWithBackoff(t *testing.T) {
	env := doneEnvelope(t)
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.SubmitResponse{Status: "queued", JobID: "j-1", Poll: "/v1/jobs/j-1"})
	})
	mux.HandleFunc("GET /v1/jobs/j-1", func(w http.ResponseWriter, _ *http.Request) {
		if polls.Add(1) < 3 {
			json.NewEncoder(w).Encode(service.SubmitResponse{Status: "running", JobID: "j-1"})
			return
		}
		w.Write(env)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rep, err := fastClient(srv.URL).Verify(context.Background(), VerifyRequest{Policy: "delta2"})
	if err != nil || !rep.Passed() {
		t.Fatalf("queued flow: rep=%v err=%v", rep, err)
	}
	if polls.Load() != 3 {
		t.Errorf("job polled %d times, want 3", polls.Load())
	}
}

// Against a daemon that answers polls at once (it ignores ?wait=), the
// first poll goes out immediately and the rest are spaced by the jittered
// exponential backoff — same schedule as ever, no hot loop.
func TestVerifyClientBacksOffAgainstAnImmediateDaemon(t *testing.T) {
	env := doneEnvelope(t)
	var mu sync.Mutex
	var arrivals []time.Time
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now()) // [0] is the submit
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.SubmitResponse{Status: "queued", JobID: "j-1", Poll: "/v1/jobs/j-1?wait=30s"})
	})
	mux.HandleFunc("GET /v1/jobs/j-1", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		n := len(arrivals) - 1
		mu.Unlock()
		if n < 4 {
			json.NewEncoder(w).Encode(service.SubmitResponse{Status: "queued", JobID: "j-1"})
			return
		}
		w.Write(env)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const base = 20 * time.Millisecond
	c := &VerifyClient{BaseURL: srv.URL, PollInterval: base, MaxPollInterval: 8 * base}
	if rep, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2"}); err != nil || !rep.Passed() {
		t.Fatalf("Verify: rep=%v err=%v", rep, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 5 {
		t.Fatalf("daemon saw %d requests, want 1 submit + 4 polls", len(arrivals))
	}
	if first := arrivals[1].Sub(arrivals[0]); first > base/2 {
		t.Errorf("first poll came %v after the submit, want at once (under the smallest backoff, %v)", first, base/2)
	}
	// Gap k between polls is backoffDelay(k) in [base<<k / 2, base<<k):
	// the sleep is net of the request, so the gap is the backoff itself.
	const slack = 2 * time.Millisecond // timer and scheduling granularity
	for k := 0; k < 3; k++ {
		gap, lo := arrivals[k+2].Sub(arrivals[k+1]), base<<k/2
		if gap < lo-slack {
			t.Errorf("poll %d came %v after the previous one, want at least the backoff's %v", k+2, gap, lo)
		}
	}
}

// Against the daemon's real handler a cold verdict is one round trip:
// the submit asks for the wait and the daemon holds it until the job
// ends, so with the client's DEFAULT intervals there is one POST, no
// poll, and the verdict arrives when the job finishes — not a poll
// interval later.
func TestVerifyClientGetsAColdVerdictInOneRoundTrip(t *testing.T) {
	const stall = 60 * time.Millisecond
	svc := newService(t, service.Config{}, service.WithFaults(faultinject.New(faultinject.Rule{
		Op: faultinject.OpWorker, Kind: faultinject.KindStall, Delay: stall,
	})))
	defer svc.Close()
	var posts, gets atomic.Int64
	handler := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			posts.Add(1)
		case http.MethodGet:
			gets.Add(1)
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := &VerifyClient{BaseURL: srv.URL}
	start := time.Now()
	rep, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2", Obligations: []string{"lemma1"}})
	took := time.Since(start)
	if err != nil || !rep.Passed() {
		t.Fatalf("Verify: rep=%v err=%v", rep, err)
	}
	if posts.Load() != 1 || gets.Load() != 0 {
		t.Errorf("cold Verify made %d POSTs and %d GETs, want 1 and 0", posts.Load(), gets.Load())
	}
	if took < stall || took > stall+c.pollInterval() {
		t.Errorf("verdict of a job stalled %v arrived after %v, want within one default poll interval (%v) of it", stall, took, c.pollInterval())
	}
}

// A job cancelled on the daemon while the client's submit waits on it is
// an error from Verify, naming the cancellation.
func TestVerifyClientReportsACancelledWait(t *testing.T) {
	svc := newService(t, service.Config{}, service.WithFaults(faultinject.New(faultinject.Rule{
		Op: faultinject.OpWorker, Kind: faultinject.KindStall, Delay: 200 * time.Millisecond,
	})))
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	verdict := make(chan error, 1)
	go func() {
		_, err := fastClient(srv.URL).Verify(context.Background(), VerifyRequest{Policy: "delta2", Obligations: []string{"lemma1"}})
		verdict <- err
	}()
	for svc.Stats().JobsSubmitted == 0 {
		time.Sleep(time.Millisecond)
	}
	job, ok := svc.Job("j-1")
	if !ok {
		t.Fatal("no job j-1")
	}
	job.Cancel()
	if err := <-verdict; err == nil || !strings.Contains(err.Error(), "verify job j-1 cancelled: ") {
		t.Errorf("Verify of a job cancelled mid-wait returned %v, want the cancellation", err)
	}
}

// A client whose own HTTP timeout is shorter than the wait the daemon
// advertises asks for half its timeout instead: a long job is then a
// series of unanswered long-polls, never transport timeouts that trip
// the breaker.
func TestVerifyClientFitsTheWaitToItsTimeout(t *testing.T) {
	const stall, timeout = 500 * time.Millisecond, 200 * time.Millisecond
	svc := newService(t, service.Config{}, service.WithFaults(faultinject.New(faultinject.Rule{
		Op: faultinject.OpWorker, Kind: faultinject.KindStall, Delay: stall,
	})))
	defer svc.Close()
	var mu sync.Mutex
	var waits, submitWaits []string
	handler := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		switch r.Method {
		case http.MethodGet:
			waits = append(waits, r.URL.Query().Get("wait"))
		case http.MethodPost:
			submitWaits = append(submitWaits, r.URL.Query().Get("wait"))
		}
		mu.Unlock()
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	c.HTTPClient = &http.Client{Timeout: timeout}
	rep, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2", Obligations: []string{"lemma1"}})
	if err != nil || !rep.Passed() {
		t.Fatalf("Verify of a job longer than the client's HTTP timeout: rep=%v err=%v", rep, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(submitWaits) != 1 || submitWaits[0] != (timeout/2).String() {
		t.Errorf("submits asked the daemon to wait %q, want one at half the client's timeout (%v)", submitWaits, timeout/2)
	}
	// The submit's own wait is the first of the job's long waits.
	if len(waits) < 2 || len(waits) > int(stall/(timeout/2)) {
		t.Errorf("%d polls for a %v job at wait=%v", len(waits), stall, timeout/2)
	}
	for _, w := range waits {
		if w != (timeout / 2).String() {
			t.Errorf("poll asked the daemon to wait %q, want half the client's timeout (%v)", w, timeout/2)
		}
	}
	if c.fails != 0 {
		t.Errorf("long job counted %d failures toward the breaker", c.fails)
	}
	// Without a timeout, and with one that outlasts the wait, the URL is
	// followed verbatim.
	for _, hc := range []*http.Client{nil, {Timeout: 2 * time.Minute}} {
		c := &VerifyClient{BaseURL: srv.URL, HTTPClient: hc}
		for _, u := range []string{"/v1/jobs/j-1?wait=30s", submitPath} {
			if got := c.fitWait(u); got != u {
				t.Errorf("fitWait rewrote %q to %q", u, got)
			}
		}
	}
}

func TestVerifyClientPropagatesContextDeadline(t *testing.T) {
	env := doneEnvelope(t)
	var got service.Request
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewDecoder(r.Body).Decode(&got)
		w.Write(env)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := fastClient(srv.URL).Verify(ctx, VerifyRequest{Policy: "delta2"}); err != nil {
		t.Fatal(err)
	}
	if got.TimeoutMs <= 0 || got.TimeoutMs > 5000 {
		t.Errorf("request carried timeout_ms=%d, want the ctx deadline (0 < ms <= 5000)", got.TimeoutMs)
	}
}

func TestVerifyClientRejects4xxWithoutRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"unknown policy"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	_, err := fastClient(srv.URL).Verify(context.Background(), VerifyRequest{Policy: "nope"})
	if err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("bad request returned %v, want a permanent non-breaker error", err)
	}
	if hits.Load() != 1 {
		t.Errorf("4xx retried: %d requests, want 1", hits.Load())
	}
}

// A poll that fails in transport counts toward the breaker like a 5xx
// poll: the client polls again, and once the breaker opens it abandons
// the job, cancels it on the daemon and names the last error.
func TestVerifyClientPollTransportErrorsOpenTheBreaker(t *testing.T) {
	var polls, cancels atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"status":"queued","job_id":"j-1","poll":"/v1/jobs/j-1"}`))
	})
	mux.HandleFunc("GET /v1/jobs/j-1", func(http.ResponseWriter, *http.Request) {
		polls.Add(1)
		panic(http.ErrAbortHandler) // the connection drops without a response
	})
	mux.HandleFunc("DELETE /v1/jobs/j-1", func(http.ResponseWriter, *http.Request) { cancels.Add(1) })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := fastClient(srv.URL)
	_, err := c.Verify(context.Background(), VerifyRequest{Policy: "delta2"})
	if !errors.Is(err, ErrCircuitOpen) || !strings.Contains(err.Error(), "(last error: ") {
		t.Fatalf("Verify against dropped polls returned %v, want ErrCircuitOpen naming the last error", err)
	}
	// net/http may itself retry a GET whose reused connection dropped.
	if polls.Load() < int64(c.breakerThreshold) || cancels.Load() != 1 {
		t.Errorf("%d polls and %d cancels, want at least %d and 1", polls.Load(), cancels.Load(), c.breakerThreshold)
	}
}

// reportBody renders a done envelope whose report lists ids, each
// passed.
func reportBody(ids ...string) string {
	results := make([]string, len(ids))
	for i, id := range ids {
		results[i] = `{"id":"` + id + `","passed":true,"states_checked":1}`
	}
	return `{"status":"done","passed":true,"report":{"policy":"p","universe":"u","results":[` + strings.Join(results, ",") + `]}}`
}

// A done envelope is a verdict only when its report covers exactly the
// requested obligations in request order: an absent or empty report, a
// missing, unknown or reordered obligation is an error on the submit
// and the poll path alike — never a PROVED report with nothing checked.
func TestVerifyClientRejectsIncompleteReports(t *testing.T) {
	var all []string
	for _, id := range verify.AllObligations() {
		all = append(all, string(id))
	}
	pair := []string{"lemma1", "steal-soundness"}
	cases := []struct {
		name string
		req  VerifyRequest
		body string
		ok   bool
	}{
		{"null report", VerifyRequest{Policy: "delta2"}, `{"status":"done","passed":true,"report":null}`, false},
		{"missing report", VerifyRequest{Policy: "delta2"}, `{"status":"done","passed":true}`, false},
		{"empty results", VerifyRequest{Policy: "delta2"}, reportBody(), false},
		{"one obligation missing", VerifyRequest{Policy: "delta2"}, reportBody(all[:len(all)-1]...), false},
		{"unknown obligation", VerifyRequest{Policy: "delta2", Obligations: []string{"lemma99"}}, reportBody("lemma99"), false},
		{"reordered", VerifyRequest{Policy: "delta2", Obligations: pair}, reportBody(pair[1], pair[0]), false},
		{"every obligation", VerifyRequest{Policy: "delta2"}, reportBody(all...), true},
		{"the requested pair", VerifyRequest{Policy: "delta2", Obligations: pair}, reportBody(pair...), true},
	}
	for _, c := range cases {
		for _, queued := range []bool{false, true} {
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, _ *http.Request) {
				if queued {
					w.WriteHeader(http.StatusAccepted)
					w.Write([]byte(`{"status":"queued","job_id":"j-1","poll":"/v1/jobs/j-1"}`))
					return
				}
				w.Write([]byte(c.body))
			})
			mux.HandleFunc("GET /v1/jobs/j-1", func(w http.ResponseWriter, _ *http.Request) {
				w.Write([]byte(c.body))
			})
			srv := httptest.NewServer(mux)
			rep, err := fastClient(srv.URL).Verify(context.Background(), c.req)
			srv.Close()
			if c.ok && (err != nil || !rep.Passed()) {
				t.Errorf("%s (queued %v): rep=%v err=%v, want a PROVED report", c.name, queued, rep, err)
			}
			if !c.ok && err == nil {
				t.Errorf("%s (queued %v): accepted as %+v, want an error", c.name, queued, rep)
			}
		}
	}
}

func TestVerifyClientFlushCache(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodDelete || r.URL.Path != "/v1/cache" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"flushed": 7}`))
	}))
	defer srv.Close()
	n, err := fastClient(srv.URL).FlushCache(context.Background())
	if err != nil || n != 7 {
		t.Errorf("FlushCache = %d, %v, want 7, nil", n, err)
	}
}

func TestBackoffDelayAndJitterBounds(t *testing.T) {
	base, cap := 100*time.Millisecond, 2*time.Second
	for attempt := 0; attempt <= 8; attempt++ {
		raw := base * (1 << attempt)
		if raw > cap {
			raw = cap
		}
		for i := 0; i < 100; i++ {
			if d := backoffDelay(attempt, base, cap); d < raw/2 || d >= raw {
				t.Fatalf("backoffDelay(%d) = %v outside [%v, %v)", attempt, d, raw/2, raw)
			}
		}
	}
	for i := 0; i < 100; i++ {
		if d := jitter(time.Second); d < 500*time.Millisecond || d >= 1500*time.Millisecond {
			t.Fatalf("jitter(1s) = %v outside [500ms, 1.5s)", d)
		}
	}
	if jitter(0) != 0 {
		t.Error("jitter(0) != 0")
	}
}
