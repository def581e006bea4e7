package service

// Tests for what one verification job waits on: the single fan-out of its
// memo misses, the single WAL commit of its fresh results, and the single
// wake-up (done channel, long-poll) of whoever waits for it.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service/faultinject"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// goldenRequests restates internal/verify's golden table (goldenCases in
// its golden_test.go) as daemon submissions, in the same order.
func goldenRequests(t *testing.T) []Request {
	t.Helper()
	universes := []statespace.Universe{
		{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1},
		{Cores: 4, MaxPerCore: 2, MaxTotal: 3, IncludeUnscheduled: true},
		{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Weights: []int64{1, 3}},
		{Cores: 4, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}},
	}
	var reqs []Request
	for _, name := range []string{
		"delta2", "delta2-rescue", "greedy-buggy", "weighted",
		"cfs-group-buggy", "hierarchical", "random-choice", "delta1-aggressive",
	} {
		for _, u := range universes {
			spec := UniverseSpecOf(u)
			reqs = append(reqs, Request{Policy: name, Universe: &spec})
		}
	}
	src, err := os.ReadFile("../dsl/testdata/delta2.pol")
	if err != nil {
		t.Fatal(err)
	}
	u := verify.DefaultUniverse()
	u.MaxFaults = 2
	spec := UniverseSpecOf(u)
	return append(reqs, Request{Source: string(src), Universe: &spec})
}

// The report a job assembles from one whole-job fan-out is, for every
// row of the verifier's golden table, byte-equal to the sequential
// driver's — checked against the compacted reports verify's TestGoldenReports pins
// (generated by PolicyContext{Sequential: true}), so the two tables
// cannot drift apart either.
func TestFanOutReportsMatchSequentialDriver(t *testing.T) {
	data, err := os.ReadFile("../verify/testdata/golden-v8.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	reqs := goldenRequests(t)
	if len(golden) != len(reqs) {
		t.Fatalf("verify's golden table has %d rows, this test restates %d", len(golden), len(reqs))
	}
	s := MustNew(Config{Parallelism: 3})
	defer s.Close()
	for i, req := range reqs {
		rep, job, err := s.Submit(req)
		if err != nil || job == nil {
			t.Fatalf("row %d: rep=%v err=%v, want a queued job (every row has misses)", i, rep, err)
		}
		rep, errMsg := waitDone(t, job)
		if rep == nil {
			t.Fatalf("row %d cancelled: %s", i, errMsg)
		}
		var line bytes.Buffer
		if err := json.Compact(&line, reportJSON(t, rep)); err != nil {
			t.Fatal(err)
		}
		if line.String() != golden[i] {
			t.Errorf("row %d: daemon-assembled report differs from the sequential driver's\n got %s\nwant %s", i, line.String(), golden[i])
		}
	}
}

// A job's fresh results reach the durable store as one batch: ten
// records, one commit (one fsync), and nothing reported before it.
func TestJobCommitsItsResultsOnce(t *testing.T) {
	s := newDurable(t, t.TempDir())
	defer s.Close()
	submitWait(t, s, Request{Policy: "delta2"})
	if st := s.Stats().Store; st.WALRecords != 10 || st.Commits != 1 || st.AppendErrors != 0 {
		t.Fatalf("cold job: %+v, want 10 records in 1 commit", st)
	}
	// A choose-clause edit re-runs the six obligations that consult the
	// choice: six records, one more commit. A memo hit commits nothing.
	edited := strings.Replace(delta2Source, "choose = first", "choose = max_load", 1)
	submitWait(t, s, Request{Source: edited})
	submitWait(t, s, Request{Source: edited})
	if st := s.Stats().Store; st.WALRecords != 16 || st.Commits != 2 {
		t.Errorf("after a six-obligation re-run and a memo hit: %+v, want 16 records in 2 commits", st)
	}
}

// Cancelling a job in the middle of its fan-out reports it cancelled and
// still memoizes — in memory and on disk — every obligation that had
// completed; the resubmission re-runs only the rest.
func TestCancelMidJobKeepsCompletedObligations(t *testing.T) {
	// A job of ~0.1 s on 2 vCPUs: while its verifier workers hold both
	// CPUs, this goroutine's wake-ups wait for a scheduler quantum
	// (~10 ms), and a job of 10–30 ms often finished before the cancel
	// landed.
	req := slowRequest()
	req.Universe.Cores, req.Universe.MaxPerCore, req.Universe.MaxTotal = 5, 3, 7
	// A spec with a DSL form: a Go-only one's cells never reach the disk.
	req.Policy = "delta2"
	// The fan-out claims shards obligation-major, so lemma1 (first, and a
	// hundredth of the job) finishes first: cancel once the job has run
	// several times as long as lemma1 alone takes on this machine.
	lemma1 := lemma1Time(req)

	s := newDurable(t, t.TempDir())
	defer s.Close()
	_, job, err := s.Submit(req)
	if err != nil || job == nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, job, JobRunning)
	time.Sleep(5 * lemma1)
	job.Cancel()
	rep, errMsg := waitDone(t, job)
	if rep != nil || !strings.HasPrefix(errMsg, "cancelled: aborted") {
		t.Fatalf("job cancelled mid-run finished with report=%v err=%q", rep, errMsg)
	}
	st := s.Stats()
	s.cache.mu.RLock()
	_, lemma1Memoized := s.cache.entries[job.sub.keys[0]]
	s.cache.mu.RUnlock()
	if !lemma1Memoized || st.CacheEntries >= len(job.sub.keys) {
		t.Fatalf("%d of %d obligations memoized (lemma1: %v), want lemma1 and not all",
			st.CacheEntries, len(job.sub.keys), lemma1Memoized)
	}
	if st.Store.WALRecords != st.CacheEntries || st.Store.Commits != 1 {
		t.Errorf("store holds %d records in %d commits for %d memoized results", st.Store.WALRecords, st.Store.Commits, st.CacheEntries)
	}

	_, again, err := s.Submit(req)
	if err != nil || again == nil || again == job {
		t.Fatalf("resubmission: job=%v err=%v, want a fresh job", again, err)
	}
	waitState(t, again, JobRunning)
	again.Cancel()
	waitDone(t, again)
	if hits := s.Stats().CacheHits - st.CacheHits; int(hits) != st.CacheEntries {
		t.Errorf("resubmission found %d memoized obligations, the cancelled job completed %d", hits, st.CacheEntries)
	}
}

// A submission that lands while a cancelled job winds down does not
// inherit the cancellation: it gets a job of its own, which runs to a
// verdict, and the cancelled job's end leaves the new job's key alone.
func TestResubmitAfterCancelGetsAFreshJob(t *testing.T) {
	s := MustNew(Config{Workers: 1})
	defer s.Close()
	req := slowRequest()
	_, job, err := s.Submit(req)
	if err != nil || job == nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, job, JobRunning)
	job.Cancel()
	_, again, err := s.Submit(req)
	if err != nil || again == nil || again == job {
		t.Fatalf("resubmission after the cancel: job=%v err=%v, want a fresh job", again, err)
	}
	if _, errMsg := waitDone(t, job); !strings.HasPrefix(errMsg, "cancelled") {
		t.Errorf("the cancelled job ended %q", errMsg)
	}
	if rep, errMsg := waitDone(t, again); rep == nil || errMsg != "" {
		t.Fatalf("the fresh job ended report=%v err=%q, want done", rep, errMsg)
	}
	if st, _, _ := again.Snapshot(); st != JobDone {
		t.Errorf("the fresh job is %s, want %s", st, JobDone)
	}
	if coalesced := s.Stats().JobsCoalesced; coalesced != 0 {
		t.Errorf("%d submissions coalesced onto the cancelled job", coalesced)
	}
}

// lemma1Time is how long lemma1 alone takes on req's registered policy
// and universe on this machine.
func lemma1Time(req Request) time.Duration {
	spec, _ := policy.Lookup(req.Policy)
	start := time.Now()
	verify.RunObligation(context.Background(), verify.ObLemma1,
		func() sched.Policy { return spec.New(nil) }, verify.Config{Universe: req.universe()})
	return time.Since(start)
}

// stalledService is a one-worker service whose worker sleeps stall before
// every job, behind a real HTTP server.
func stalledService(t *testing.T, stall time.Duration) (*Service, *httptest.Server) {
	t.Helper()
	s := MustNew(Config{Workers: 1}, WithFaults(faultinject.New(faultinject.Rule{
		Op: faultinject.OpWorker, Kind: faultinject.KindStall, Delay: stall,
	})))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

var quickRequest = Request{Policy: "delta2", Obligations: []string{"lemma1"}}

// A poll with ?wait= is held until the job is terminal and answers within
// milliseconds of that — not before, and not a poll interval later.
func TestLongPollReturnsWhenTheJobFinishes(t *testing.T) {
	const stall = 150 * time.Millisecond
	s, srv := stalledService(t, stall)
	code, env, _ := postVerify(t, srv.URL, quickRequest)
	if code != http.StatusAccepted || env.Poll != "/v1/jobs/"+env.JobID+"?wait=30s" {
		t.Fatalf("submit: %d %+v, want 202 with a poll URL that asks for the long-poll", code, env)
	}
	job, _ := s.Job(env.JobID)
	finished := make(chan time.Time, 1)
	go func() {
		<-job.done
		finished <- time.Now()
	}()

	start := time.Now()
	got := pollJSON(t, srv.URL+env.Poll) // the advertised URL, verbatim
	answered := time.Now()
	if got.Status != "done" || got.Passed == nil || !*got.Passed || got.Poll != "" {
		t.Fatalf("long-poll answered %+v, want the finished report", got)
	}
	if held := answered.Sub(start); held < stall/2 {
		t.Errorf("long-poll answered after %v, before the %v-stalled job could finish", held, stall)
	}
	if lag := answered.Sub(<-finished); lag > 50*time.Millisecond {
		t.Errorf("long-poll answered %v after the job finished", lag)
	}
}

// What ends a long-poll other than the verdict: the wait elapsing, the
// request going away, or there being nothing to wait for.
func TestLongPollBounds(t *testing.T) {
	const stall = 400 * time.Millisecond
	_, srv := stalledService(t, stall)
	_, env, _ := postVerify(t, srv.URL, quickRequest)
	base := srv.URL + "/v1/jobs/" + env.JobID
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}

	// A short wait on a still-stalled job elapses and answers
	// non-terminal, with the URL to poll next.
	took := timed(func() {
		if got := pollJSON(t, base+"?wait=30ms"); got.Status == "done" || got.Poll != env.Poll {
			t.Errorf("short wait answered %+v, want a non-terminal envelope pointing at %s", got, env.Poll)
		}
	})
	if took < 30*time.Millisecond || took > stall/2 {
		t.Errorf("wait=30ms on a stalled job answered after %v", took)
	}
	// No wait, a malformed one and a negative one all mean none.
	for _, q := range []string{"", "?wait=soon", "?wait=-5s", "?wait=0"} {
		if took := timed(func() { pollJSON(t, base+q) }); took > stall/4 {
			t.Errorf("poll %q held for %v, want an answer at once", q, took)
		}
	}
	// A request that goes away releases its handler promptly.
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+env.JobID+"?wait=5s", nil).WithContext(ctx)
	time.AfterFunc(20*time.Millisecond, cancel)
	if took := timed(func() { srv.Config.Handler.ServeHTTP(httptest.NewRecorder(), req) }); took > stall/2 {
		t.Errorf("handler outlived its cancelled request by %v", took)
	}
	// An unknown job is 404 at once, whatever the wait.
	took = timed(func() {
		resp, err := http.Get(srv.URL + "/v1/jobs/j-999?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
		}
	})
	if took > stall/4 {
		t.Errorf("unknown job held for %v", took)
	}
	// The cap is the server's: no client can park a handler for longer.
	r := httptest.NewRequest(http.MethodGet, "/v1/jobs/j-1?wait=10h", nil)
	if got := pollWait(r); got != maxPollWait {
		t.Errorf("wait=10h parsed to %v, want the %v cap", got, maxPollWait)
	}
}

// Every job reaches finish — a job still queued when the service closes
// included — so a long-poll never outlives a drain that ran past its
// budget, nor Close.
func TestDrainPastBudgetThenCloseReleasesLongPolls(t *testing.T) {
	s, srv := stalledService(t, 150*time.Millisecond)
	_, running, err := s.Submit(quickRequest)
	if err != nil || running == nil {
		t.Fatal(err)
	}
	_, queued, err := s.Submit(Request{Policy: "delta2", Obligations: []string{"steal-soundness"}})
	if err != nil || queued == nil {
		t.Fatal(err)
	}
	polled := make(chan SubmitResponse, 1)
	go func() { polled <- pollJSON(t, srv.URL+pollURL(queued.ID())) }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain with two stalled jobs returned %v, want its budget to run out", err)
	}
	select {
	case env := <-polled:
		t.Fatalf("long-poll answered %+v before the job was terminal", env)
	default:
	}
	s.Close()
	for _, job := range []*Job{running, queued} {
		select {
		case <-job.done:
		default:
			t.Errorf("job %s never reached finish", job.ID())
		}
	}
	if state, _, errMsg := queued.Snapshot(); state != JobCancelled || !strings.Contains(errMsg, "before start") {
		t.Errorf("job queued at Close: %s %q, want cancelled before start", state, errMsg)
	}
	select {
	case env := <-polled:
		if env.Status != string(JobCancelled) {
			t.Errorf("long-poll on the queued job answered %+v, want cancelled", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll still held after Close")
	}
}

// A submit without a wait answers 202 at once, however long the job; one
// whose wait is shorter than the job answers 202 when the wait elapses,
// with the URL to poll, and that poll brings the verdict.
func TestWaitedSubmitShorterThanTheJobAnswers202(t *testing.T) {
	const stall = 300 * time.Millisecond
	s, srv := stalledService(t, stall)
	start := time.Now()
	code, env, _ := postVerify(t, srv.URL, quickRequest)
	if took := time.Since(start); code != http.StatusAccepted || took > stall/4 {
		t.Fatalf("submit without a wait: %d %+v after %v, want 202 at once", code, env, took)
	}
	waitDone(t, mustJob(t, s, env.JobID))

	req := Request{Policy: "delta2", Obligations: []string{"steal-soundness"}}
	start = time.Now()
	code, env, _ = postTo(t, srv.URL+"/v1/verify?wait=30ms", req)
	took := time.Since(start)
	if code != http.StatusAccepted || env.Status == "done" || env.Poll != pollURL(env.JobID) {
		t.Fatalf("wait=30ms on a %v job: %d %+v, want 202 with the poll URL", stall, code, env)
	}
	if took < 30*time.Millisecond || took > stall/2 {
		t.Errorf("wait=30ms on a %v job answered after %v", stall, took)
	}
	if got := pollJSON(t, srv.URL+env.Poll); got.Status != "done" || got.Passed == nil || !*got.Passed {
		t.Errorf("the poll after a 202 answered %+v, want the verdict", got)
	}
}

// mustJob looks a job up by id.
func mustJob(t *testing.T, s *Service, id string) *Job {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("no job %q", id)
	}
	return job
}

// Two identical waited submits share one job, and both are answered with
// its verdict: the same bytes, job_id included.
func TestCoalescedWaitedSubmitsShareTheVerdict(t *testing.T) {
	s, srv := stalledService(t, 150*time.Millisecond)
	type answer struct {
		code int
		body []byte
	}
	answers := make(chan answer, 2)
	submit := func() {
		code, _, body := postTo(t, srv.URL+"/v1/verify?wait=30s", quickRequest)
		answers <- answer{code, body}
	}
	go submit()
	for s.Stats().JobsSubmitted == 0 {
		time.Sleep(time.Millisecond)
	}
	go submit()
	a, b := <-answers, <-answers
	if a.code != http.StatusOK || b.code != http.StatusOK || !bytes.Equal(a.body, b.body) {
		t.Errorf("coalesced waited submits answered %d and %d:\n%s\n%s", a.code, b.code, a.body, b.body)
	}
	var env SubmitResponse
	if err := json.Unmarshal(a.body, &env); err != nil || env.Status != "done" || env.JobID == "" {
		t.Errorf("coalesced answer %+v (%v), want a job's done envelope", env, err)
	}
	if st := s.Stats(); st.JobsSubmitted != 1 || st.JobsCoalesced != 1 {
		t.Errorf("%d jobs submitted and %d coalesced, want 1 and 1", st.JobsSubmitted, st.JobsCoalesced)
	}
}

// A job cancelled while a submit waits on it answers that submit with the
// cancelled envelope the poll sends.
func TestWaitedSubmitAnswersTheCancellation(t *testing.T) {
	s, srv := stalledService(t, 200*time.Millisecond)
	type answer struct {
		code int
		env  SubmitResponse
		body []byte
	}
	answered := make(chan answer, 1)
	go func() {
		code, env, body := postTo(t, srv.URL+"/v1/verify?wait=30s", quickRequest)
		answered <- answer{code, env, body}
	}()
	for s.Stats().JobsSubmitted == 0 {
		time.Sleep(time.Millisecond)
	}
	job := mustJob(t, s, "j-1")
	job.Cancel()
	got := <-answered
	if got.code != http.StatusOK || got.env.Status != string(JobCancelled) || got.env.Error == "" || got.env.JobID != job.ID() {
		t.Fatalf("submit waiting on a cancelled job answered %d %+v, want 200 with the cancelled envelope", got.code, got.env)
	}
	if polled := getRaw(t, srv.URL+"/v1/jobs/"+job.ID()); !bytes.Equal(got.body, polled) {
		t.Errorf("waited submit and cancelled poll differ:\nsubmit %s\n  poll %s", got.body, polled)
	}
}

// A client that goes away while its submit waits cancels the job, as a
// DELETE would; the obligations the job completed stay memoized.
func TestClientGoneMidWaitCancelsTheJob(t *testing.T) {
	req := slowRequest()
	req.Universe.Cores, req.Universe.MaxPerCore, req.Universe.MaxTotal = 5, 3, 7
	lemma1 := lemma1Time(req)

	s := MustNew(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/verify?wait=30s", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	for s.Stats().JobsSubmitted == 0 {
		time.Sleep(time.Millisecond)
	}
	job := mustJob(t, s, "j-1")
	waitState(t, job, JobRunning)
	time.Sleep(5 * lemma1)
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("the abandoned submit was answered")
	}
	rep, errMsg := waitDone(t, job)
	if rep != nil || !strings.HasPrefix(errMsg, "cancelled: aborted") {
		t.Fatalf("job of a client gone mid-wait finished with report=%v err=%q, want cancelled", rep, errMsg)
	}
	s.cache.mu.RLock()
	_, lemma1Memoized := s.cache.entries[job.sub.keys[0]]
	s.cache.mu.RUnlock()
	if n := s.Stats().CacheEntries; !lemma1Memoized || n >= len(job.sub.keys) {
		t.Errorf("%d of %d obligations memoized (lemma1: %v), want lemma1 and not all", n, len(job.sub.keys), lemma1Memoized)
	}
}
