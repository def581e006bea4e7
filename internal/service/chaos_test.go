package service

// Chaos and crash-safety tests for the durable daemon: warm restarts,
// torn WAL writes, checker panics, worker stalls, deadline propagation,
// drain lifecycle and admin flushes. CI runs these under the
// TestChaos|TestCrash|TestTorn|TestCheckerPanic|TestDrain|TestFlush
// name filter — keep new chaos tests on those prefixes.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service/faultinject"
	"repro/internal/verify"
)

// fastObligations is a 2-obligation subset that verifies in a few ms on
// the default universe, so restart cycles stay cheap.
var fastObligations = []string{"lemma1", "steal-soundness"}

func newDurable(t *testing.T, dir string, opts ...Option) *Service {
	t.Helper()
	s, err := New(Config{DataDir: dir}, opts...)
	if err != nil {
		t.Fatalf("New(DataDir=%s): %v", dir, err)
	}
	return s
}

func reportJSON(t *testing.T, rep *verify.Report) []byte {
	t.Helper()
	data, err := verify.ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The PR's acceptance bar: a daemon restarted onto a warm -data-dir
// serves a previously verified submission as a cache hit — zero
// obligation re-runs, byte-identical report.
func TestCrashRestartWarmFromStore(t *testing.T) {
	dir := t.TempDir()
	req := Request{Policy: "delta2", Obligations: fastObligations}

	s1 := newDurable(t, dir)
	coldJSON := reportJSON(t, submitWait(t, s1, req))
	s1.Close()

	s2 := newDurable(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if st.Store == nil || st.Store.RecoveredRecords != len(fastObligations) {
		t.Fatalf("restart recovered %+v, want %d records", st.Store, len(fastObligations))
	}
	rep, job, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		waitDone(t, job)
		t.Fatal("warm restart queued a job instead of serving from the recovered memo")
	}
	if got := s2.Stats().CacheMisses; got != 0 {
		t.Errorf("warm restart ran %d obligations, want 0", got)
	}
	if warm := reportJSON(t, rep); !bytes.Equal(coldJSON, warm) {
		t.Errorf("warm report differs from pre-restart verdict:\npre:\n%s\npost:\n%s", coldJSON, warm)
	}
}

// A Go-only spec's cells are keyed by the opaque "go:<name>", which a
// rebuilt binary reuses for whatever code then carries the name, so they
// live in the in-memory memo only. A daemon reopened on its data dir
// re-verifies weighted ("cached" false) and still serves delta2 and the
// DSL-only greedy-buggy, whose keys hash their clauses, from the store.
func TestCrashRestartForgetsOpaqueCells(t *testing.T) {
	dir := t.TempDir()
	delta2 := Request{Policy: "delta2", Obligations: fastObligations}
	weighted := Request{Policy: "weighted", Obligations: fastObligations}
	greedy := Request{Policy: "greedy-buggy", Obligations: fastObligations}
	cached := func(s *Service, req Request) bool {
		t.Helper()
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		_, env, _ := postVerify(t, srv.URL, req)
		return env.Cached
	}

	s1 := newDurable(t, dir)
	submitWait(t, s1, delta2)
	submitWait(t, s1, weighted)
	submitWait(t, s1, greedy)
	if !cached(s1, delta2) || !cached(s1, weighted) || !cached(s1, greedy) {
		t.Fatal("the live daemon does not serve all three policies from its memo")
	}
	if got := s1.Stats().Store.WALRecords; got != 2*len(fastObligations) {
		t.Errorf("the WAL holds %d records, want delta2's and greedy-buggy's %d", got, 2*len(fastObligations))
	}
	s1.Close()

	s2 := newDurable(t, dir)
	defer s2.Close()
	if !cached(s2, delta2) {
		t.Error(`reopened daemon answers "cached": false for delta2, want true`)
	}
	if !cached(s2, greedy) {
		t.Error(`reopened daemon answers "cached": false for greedy-buggy, a DSL-only spec, want true`)
	}
	if cached(s2, weighted) {
		t.Error(`reopened daemon answers "cached": true for weighted, a Go-only spec`)
	}
}

// A torn WAL write (the disk half of kill -9 mid-append) loses exactly
// the torn record: the live service still reports from memory, the
// restarted one re-runs only the lost obligation, and the re-run verdict
// is byte-identical.
func TestTornAppendHealedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := Request{Policy: "delta2", Obligations: fastObligations}
	faults := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWALAppend, Kind: faultinject.KindTorn, Bytes: 3, On: 2,
	})

	s1 := newDurable(t, dir, WithFaults(faults))
	coldJSON := reportJSON(t, submitWait(t, s1, req))
	st := s1.Stats().Store
	if st.AppendErrors != 1 || st.TruncatedRecords != 1 || st.Disabled {
		t.Fatalf("torn append not healed in place: %+v", st)
	}
	s1.Close()

	s2 := newDurable(t, dir)
	defer s2.Close()
	if got := s2.Stats().Store.RecoveredRecords; got != 1 {
		t.Fatalf("recovered %d records, want 1 (the torn one lost, its neighbor intact)", got)
	}
	warmJSON := reportJSON(t, submitWait(t, s2, req))
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("report after torn-write recovery differs:\npre:\n%s\npost:\n%s", coldJSON, warmJSON)
	}
	st2 := s2.Stats()
	if st2.CacheHits != 1 || st2.CacheMisses != 1 {
		t.Errorf("recovery re-ran %d obligations (hits=%d), want exactly the lost one",
			st2.CacheMisses, st2.CacheHits)
	}
	if got := st2.Store.WALRecords; got != len(fastObligations) {
		t.Errorf("the WAL holds %d records after the healing re-run, want %d", got, len(fastObligations))
	}
}

// A panicking checker must not kill the daemon: the obligation comes
// back ABORTED (and uncached), the other nine obligations of the same
// fan-out complete and are memoized, and a resubmission re-runs exactly
// the crashed checker.
func TestCheckerPanicContained(t *testing.T) {
	faults := faultinject.New(faultinject.Rule{
		Op: faultinject.OpChecker, Kind: faultinject.KindPanic, Match: "lemma1", On: 1,
	})
	s := MustNew(Config{}, WithFaults(faults))
	defer s.Close()
	req := Request{Policy: "delta2"}

	rep := submitWait(t, s, req)
	if len(rep.Results) != 10 {
		t.Fatalf("report has %d results, want 10", len(rep.Results))
	}
	if lemma := rep.Results[0]; !lemma.Aborted || !strings.Contains(lemma.Witness, "checker panic") {
		t.Errorf("panicked obligation reported %+v, want ABORTED with a panic witness", lemma)
	}
	for _, res := range rep.Results[1:] {
		if !res.Passed || res.Aborted {
			t.Errorf("sibling obligation disturbed by the panic: %+v", res)
		}
	}
	st := s.Stats()
	if st.CheckerPanics != 1 {
		t.Errorf("CheckerPanics = %d, want 1", st.CheckerPanics)
	}
	if st.CacheEntries != 9 {
		t.Errorf("%d entries cached, want the nine that completed and not the aborted one", st.CacheEntries)
	}

	// The fault was one-shot: resubmitting re-runs lemma1, and only it.
	rep2 := submitWait(t, s, req)
	if !rep2.Passed() {
		t.Errorf("resubmission after the panic did not verify cleanly:\n%s", rep2)
	}
	st2 := s.Stats()
	if st2.CacheEntries != 10 || st2.CacheMisses != st.CacheMisses+1 || st2.CacheHits != st.CacheHits+9 {
		t.Errorf("resubmission: %d entries, +%d misses, +%d hits, want 10 entries from one re-run and nine hits",
			st2.CacheEntries, st2.CacheMisses-st.CacheMisses, st2.CacheHits-st.CacheHits)
	}
}

// An injected worker stall delays the job without corrupting it.
func TestChaosWorkerStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	faults := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWorker, Kind: faultinject.KindStall, Delay: stall,
	})
	s := MustNew(Config{}, WithFaults(faults))
	defer s.Close()

	start := time.Now()
	rep := submitWait(t, s, Request{Policy: "delta2", Obligations: []string{"lemma1"}})
	if took := time.Since(start); took < stall {
		t.Errorf("stalled job finished in %v, want >= %v", took, stall)
	}
	if !rep.Passed() {
		t.Errorf("stalled job report:\n%s", rep)
	}
	if faults.Fired()["worker:stall"] != 1 {
		t.Errorf("Fired() = %v, want one worker:stall", faults.Fired())
	}
}

// A client-propagated deadline (Request.timeout_ms) bounds the job even
// after the submit round-trip returned: the job cancels itself and
// nothing half-finished is cached.
func TestChaosDeadlinePropagation(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	req := slowRequest()
	req.TimeoutMs = 1

	rep, job, err := s.Submit(req)
	if err != nil || rep != nil {
		t.Fatalf("Submit: rep=%v err=%v, want a queued job", rep, err)
	}
	rep2, errMsg := waitDone(t, job)
	if rep2 != nil || !strings.Contains(errMsg, "cancelled") {
		t.Fatalf("deadline-bounded job finished with report=%v err=%q, want cancellation", rep2, errMsg)
	}
	st := s.Stats()
	// Obligations that completed before the deadline are legitimately
	// cached (they are valid results); the suite as a whole must not be.
	if st.JobsCancelled != 1 || st.CacheEntries >= len(verify.AllObligations()) {
		t.Errorf("after deadline cancel: %d cancelled, %d cached, want 1 cancelled and a partial cache",
			st.JobsCancelled, st.CacheEntries)
	}
}

// Drain semantics: /readyz flips to 503 and submissions bounce with
// ErrDraining, while polls keep answering and in-flight jobs run to
// completion within the drain budget.
func TestDrainLifecycle(t *testing.T) {
	faults := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWorker, Kind: faultinject.KindStall, Delay: 100 * time.Millisecond,
	})
	s := MustNew(Config{Workers: 1}, WithFaults(faults))
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	statusOf := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := statusOf("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", got)
	}

	_, job, err := s.Submit(Request{Policy: "delta2", Obligations: []string{"lemma1"}})
	if err != nil || job == nil {
		t.Fatalf("Submit: %v", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never flipped readiness")
		}
		time.Sleep(time.Millisecond)
	}

	if got := statusOf("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", got)
	}
	if got := statusOf("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200 (liveness is not readiness)", got)
	}
	if _, _, err := s.Submit(Request{Policy: "null"}); err != ErrDraining {
		t.Errorf("submit during drain returned %v, want ErrDraining", err)
	}
	// Polls keep working so clients can collect reports mid-drain.
	if got := statusOf("/v1/jobs/" + job.ID()); got != http.StatusOK {
		t.Errorf("poll during drain = %d, want 200", got)
	}

	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, rep, errMsg := job.Snapshot(); rep == nil {
		t.Errorf("in-flight job did not survive the drain: %s", errMsg)
	}
}

// The admin flush clears the memo from memory AND disk; the next
// submission re-verifies and repopulates both.
func TestFlushCacheMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir)
	req := Request{Policy: "delta2", Obligations: fastObligations}
	coldJSON := reportJSON(t, submitWait(t, s, req))

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	httpReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/cache", nil)
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/cache = %d", resp.StatusCode)
	}
	st := s.Stats()
	if st.CacheEntries != 0 || st.CacheFlushes != 1 || st.Store.WALRecords != 0 {
		t.Fatalf("flush left state behind: %d entries, %d flushes, %d on disk",
			st.CacheEntries, st.CacheFlushes, st.Store.WALRecords)
	}

	// Re-verification repopulates memory and disk with the same verdicts.
	if again := reportJSON(t, submitWait(t, s, req)); !bytes.Equal(coldJSON, again) {
		t.Errorf("post-flush re-verification differs:\npre:\n%s\npost:\n%s", coldJSON, again)
	}
	s.Close()
	s2 := newDurable(t, dir)
	defer s2.Close()
	if got := s2.Stats().Store.RecoveredRecords; got != len(fastObligations) {
		t.Errorf("restart after flush+reverify recovered %d records, want %d", got, len(fastObligations))
	}
}

// A flush that lands while warm submissions are being answered costs
// each submission one probe per obligation, never two: a submission is
// answered from the memo whole (its keys are hits) or runs as a job
// (whose probes are its hits and misses), so with no job cancelled and
// none refused by backpressure every probe belongs to exactly one of
// the two.
func TestFlushRacingWarmSubmitsCountsEachProbeOnce(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	req := Request{Policy: "delta2", Obligations: fastObligations}
	submitWait(t, s, req)

	const clients, rounds = 4, 1000
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.FlushCache()
			time.Sleep(20 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rep, job, err := s.Submit(req)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if rep == nil {
					if rep, errMsg := waitDone(t, job); rep == nil {
						t.Errorf("job %s cancelled: %s", job.ID(), errMsg)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-flushed

	st := s.Stats()
	if st.JobsCancelled != 0 || st.CacheFlushes == 0 {
		t.Fatalf("%d jobs cancelled, %d flushes: the race under test did not run", st.JobsCancelled, st.CacheFlushes)
	}
	probes := st.CacheHits + st.CacheMisses
	if want := int64(len(fastObligations)) * (st.ServedFromCache + st.JobsSubmitted); probes != want {
		t.Errorf("%d hits + %d misses = %d probes for %d answered submissions and %d jobs, want %d",
			st.CacheHits, st.CacheMisses, probes, st.ServedFromCache, st.JobsSubmitted, want)
	}
	t.Logf("%d answered from the memo, %d jobs (%d coalesced onto), %d flushes",
		st.ServedFromCache, st.JobsSubmitted, st.JobsCoalesced, st.CacheFlushes)
}
