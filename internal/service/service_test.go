package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// MustNew is New for a Config that cannot fail (no DataDir).
func MustNew(cfg Config, opts ...Option) *Service {
	s, err := New(cfg, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// waitDone waits for a job to reach its terminal state.
func waitDone(t *testing.T, job *Job) (*verify.Report, string) {
	t.Helper()
	select {
	case <-job.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", job.ID())
	}
	_, rep, errMsg := job.Snapshot()
	return rep, errMsg
}

// submitWait submits and drives the request to a finished report,
// whether it was served from cache or queued.
func submitWait(t *testing.T, s *Service, req Request) *verify.Report {
	t.Helper()
	rep, job, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rep != nil {
		return rep
	}
	rep, errMsg := waitDone(t, job)
	if rep == nil {
		t.Fatalf("job %s cancelled: %s", job.ID(), errMsg)
	}
	return rep
}

// The delta2 DSL in a different surface spelling and under a different
// name — compiled form identical to the registered delta2 spec.
const delta2Source = `# same policy, different spelling
policy mydelta {
    load   = core.nready + core.running
    filter = victim.load() - thief.load() >= 2
    choose = first
}`

func TestNameAndSourceShareCacheEntries(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()

	cold := submitWait(t, s, Request{Policy: "delta2"})
	if !cold.Passed() {
		t.Fatalf("delta2 refuted:\n%s", cold)
	}
	entries := s.Stats().CacheEntries
	if entries != len(verify.AllObligations()) {
		t.Fatalf("cold run cached %d entries, want %d", entries, len(verify.AllObligations()))
	}

	// Equivalent DSL source: every obligation must be a cache hit — no
	// new entries, answered synchronously, report headed by its own name.
	rep, job, err := s.Submit(Request{Source: delta2Source})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		waitDone(t, job)
		t.Fatalf("equivalent DSL source queued a job instead of hitting the cache")
	}
	if got := s.Stats().CacheEntries; got != entries {
		t.Errorf("DSL resubmission grew the cache: %d -> %d entries", entries, got)
	}
	if rep.Policy != "mydelta" {
		t.Errorf("report headed %q, want the submission's own name", rep.Policy)
	}
	if len(rep.Results) != len(cold.Results) {
		t.Fatalf("result count mismatch")
	}
	for i := range rep.Results {
		if rep.Results[i] != cold.Results[i] {
			t.Errorf("result %d differs between name and source submissions:\n %+v\n %+v",
				i, cold.Results[i], rep.Results[i])
		}
	}
}

// A registered DSL-only spec is keyed by its clauses, like delta2: after
// a by-name submission of greedy-buggy, a POST of its source is served
// entirely from the memo.
func TestDSLOnlySpecSharesCellsWithItsSource(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submitWait(t, s, Request{Policy: "greedy-buggy"})
	st0 := s.Stats()
	spec, _ := policy.Lookup("greedy-buggy")
	code, env, raw := postVerify(t, srv.URL, Request{Source: spec.DSL})
	if code != http.StatusOK || !env.Cached {
		t.Fatalf("POST of greedy-buggy's source after the by-name run: %d, want a fully cached 200\n%s", code, raw)
	}
	st1 := s.Stats()
	if n := int64(len(verify.AllObligations())); st1.CacheHits != st0.CacheHits+n || st1.CacheMisses != st0.CacheMisses {
		t.Errorf("source resubmission: +%d hits +%d misses, want +%d/+0",
			st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses, n)
	}
}

// random-choice is delta2 with another choose clause, so after delta2 a
// by-name random-choice re-runs only the six obligations that consult
// Choose.
func TestRandomChoiceRerunsOnlyChooseObligations(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()

	submitWait(t, s, Request{Policy: "delta2"})
	st0 := s.Stats()
	submitWait(t, s, Request{Policy: "random-choice"})
	st1 := s.Stats()
	if st1.CacheHits != st0.CacheHits+4 || st1.CacheMisses != st0.CacheMisses+6 {
		t.Errorf("random-choice after delta2: +%d hits +%d misses, want +4/+6",
			st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses)
	}
}

func TestObligationKeyDistinctions(t *testing.T) {
	forms := map[string]string{"load": "L", "filter": "F", "choose": "C", "steal": "S"}
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true}
	base := obligationKey(forms, u, verify.ObLemma1, 1000)

	u2 := u
	u2.Cores = 4
	if obligationKey(forms, u2, verify.ObLemma1, 1000) == base {
		t.Error("changed universe, same key")
	}
	if obligationKey(forms, u, verify.ObStealSoundness, 1000) == base {
		t.Error("different obligation, same key")
	}
	// MaxTotal=0 means Cores*MaxPerCore: both spellings one cell.
	u3 := u
	u3.MaxTotal = 0
	u4 := u
	u4.MaxTotal = u.Cores * u.MaxPerCore
	if obligationKey(forms, u3, verify.ObLemma1, 1000) != obligationKey(forms, u4, verify.ObLemma1, 1000) {
		t.Error("MaxTotal shorthand hashes differently from its expansion")
	}
	// MaxRounds is identity only for the sequential WC search.
	if obligationKey(forms, u, verify.ObWorkConservSeq, 1000) == obligationKey(forms, u, verify.ObWorkConservSeq, 2000) {
		t.Error("maxRounds ignored for work-conservation-sequential")
	}
	if obligationKey(forms, u, verify.ObLemma1, 1000) != obligationKey(forms, u, verify.ObLemma1, 2000) {
		t.Error("maxRounds leaked into a maxRounds-free obligation")
	}
	// Components outside the obligation's dependency set don't matter.
	forms2 := map[string]string{"load": "L", "filter": "F", "choose": "OTHER", "steal": "S"}
	if obligationKey(forms2, u, verify.ObLemma1, 1000) != base {
		t.Error("choose edit invalidated lemma1, which never calls Choose")
	}
	forms3 := map[string]string{"load": "L", "filter": "OTHER", "choose": "C", "steal": "S"}
	if obligationKey(forms3, u, verify.ObLemma1, 1000) == base {
		t.Error("filter edit did not invalidate lemma1")
	}
}

func TestFaultUniverseMemoizesSeparatelyAndReplaysWarm(t *testing.T) {
	// MaxFaults is part of the canonical universe, so a fault-extended
	// run memoizes in its own cells: the healthy run's cache must not
	// answer for it, and its own warm resubmission must be a pure,
	// byte-identical cache hit.
	s := MustNew(Config{})
	defer s.Close()

	healthy := UniverseSpec{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true}
	faulty := healthy
	faulty.MaxFaults = 1

	submitWait(t, s, Request{Policy: "delta2-rescue", Universe: &healthy})
	entries := s.Stats().CacheEntries

	cold := submitWait(t, s, Request{Policy: "delta2-rescue", Universe: &faulty})
	if !cold.Passed() {
		t.Fatalf("delta2-rescue refuted under faults:\n%s", cold)
	}
	st := s.Stats()
	if st.CacheEntries != 2*entries {
		t.Errorf("fault universe shared the healthy cache: %d entries, want %d", st.CacheEntries, 2*entries)
	}

	rep, job, err := s.Submit(Request{Policy: "delta2-rescue", Universe: &faulty})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		waitDone(t, job)
		t.Fatal("warm fault-universe resubmission queued a job instead of hitting the cache")
	}
	coldJSON, err := verify.ReportJSON(cold)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := verify.ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm fault-universe report differs from cold:\n%s\nvs\n%s", coldJSON, warmJSON)
	}

	// The refuted side memoizes its witnesses just the same.
	refuted := submitWait(t, s, Request{Policy: "delta2", Universe: &faulty})
	if refuted.Passed() {
		t.Fatal("delta2 (no rescue rule) passed under faults")
	}
	warmRefuted, job, err := s.Submit(Request{Policy: "delta2", Universe: &faulty})
	if err != nil {
		t.Fatal(err)
	}
	if warmRefuted == nil {
		waitDone(t, job)
		t.Fatal("warm refuted resubmission queued a job")
	}
	a, _ := verify.ReportJSON(refuted)
	b, _ := verify.ReportJSON(warmRefuted)
	if !bytes.Equal(a, b) {
		t.Errorf("warm refuted report differs from cold:\n%s\nvs\n%s", a, b)
	}
}

// A one-clause DSL edit re-runs exactly the obligations whose checkers
// consult that clause — the acceptance criterion, observed through the
// stats endpoint's hit/miss counters.
func TestDeltaInvalidation(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()

	base := `policy p {
    load   = self.nthreads
    filter = stealee.load - self.load >= 2
    steal  = 1
    choose = first
}`
	submitWait(t, s, Request{Source: base})
	st0 := s.Stats()
	if st0.CacheMisses != 10 || st0.CacheHits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/10", st0.CacheHits, st0.CacheMisses)
	}

	// Whitespace/comment edit: zero new work.
	submitWait(t, s, Request{Source: "# cosmetic\n" + base})
	st1 := s.Stats()
	if st1.CacheMisses != st0.CacheMisses || st1.CacheHits != st0.CacheHits+10 {
		t.Errorf("cosmetic edit: hits %d->%d misses %d->%d, want +10 hits, +0 misses",
			st0.CacheHits, st1.CacheHits, st0.CacheMisses, st1.CacheMisses)
	}

	// Steal-clause edit: lemma1 is the only obligation that never looks
	// at steal sizing, so exactly 9 obligations re-run.
	submitWait(t, s, Request{Source: `policy p {
    load   = self.nthreads
    filter = stealee.load - self.load >= 2
    steal  = 2
    choose = first
}`})
	st2 := s.Stats()
	if st2.CacheHits != st1.CacheHits+1 || st2.CacheMisses != st1.CacheMisses+9 {
		t.Errorf("steal edit: +%d hits +%d misses, want +1/+9",
			st2.CacheHits-st1.CacheHits, st2.CacheMisses-st1.CacheMisses)
	}

	// Choose-clause edit (against base): only the six round-executing
	// obligations (the four steady-state ones plus the two fault
	// obligations) consult Choose.
	submitWait(t, s, Request{Source: `policy p {
    load   = self.nthreads
    filter = stealee.load - self.load >= 2
    steal  = 1
    choose = max_load
}`})
	st3 := s.Stats()
	if st3.CacheHits != st2.CacheHits+4 || st3.CacheMisses != st2.CacheMisses+6 {
		t.Errorf("choose edit: +%d hits +%d misses, want +4/+6",
			st3.CacheHits-st2.CacheHits, st3.CacheMisses-st2.CacheMisses)
	}
}

// Warm-cache resubmission: byte-identical report, far under the cold
// verification time.
func TestWarmResubmissionByteIdenticalAndFast(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()

	// A 4-core universe: the cold run is tens of ms of checking, so the
	// ratio below measures the memo, not how fast a small job is woken.
	req := Request{
		Policy:   "delta2-gen",
		Universe: &UniverseSpec{Cores: 4, MaxPerCore: 3, MaxTotal: 6, IncludeUnscheduled: true},
	}
	coldStart := time.Now()
	coldRep := submitWait(t, s, req)
	coldDur := time.Since(coldStart)
	coldJSON, err := verify.ReportJSON(coldRep)
	if err != nil {
		t.Fatal(err)
	}

	warmDur := time.Duration(1 << 62)
	for i := 0; i < 10; i++ {
		start := time.Now()
		rep, job, err := s.Submit(req)
		if d := time.Since(start); d < warmDur {
			warmDur = d
		}
		if err != nil || rep == nil {
			if job != nil {
				waitDone(t, job)
			}
			t.Fatalf("warm resubmission not served from cache (err=%v)", err)
		}
		warmJSON, err := verify.ReportJSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(coldJSON, warmJSON) {
			t.Fatalf("warm report differs from cold:\ncold:\n%s\nwarm:\n%s", coldJSON, warmJSON)
		}
	}
	if warmDur*100 >= coldDur {
		t.Errorf("warm resubmission took %v, not <1%% of cold %v", warmDur, coldDur)
	}
}

// slowRequest occupies a worker long enough to observe queue behavior:
// the weighted balancer over a 6-core universe takes ~200 ms on 2 vCPUs
// (the 5-core one, 12–29 ms, often finished before a test's next step).
// A deadline's cancel is not instant either: when the verifier's
// workers keep every P busy, the goroutine that fires it can wait about
// 10 ms for Go's async preemption.
func slowRequest() Request {
	return Request{
		Policy:   "weighted",
		Universe: &UniverseSpec{Cores: 6, MaxPerCore: 2, MaxTotal: 7, IncludeUnscheduled: true},
	}
}

func waitState(t *testing.T, job *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _, _ := job.Snapshot()
		if st == want {
			return
		}
		if st == JobDone || st == JobCancelled || time.Now().After(deadline) {
			t.Fatalf("job %s state %s, waiting for %s", job.ID(), st, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoalescingAndBackpressure(t *testing.T) {
	s := MustNew(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// Occupy the single worker.
	_, blocker, err := s.Submit(slowRequest())
	if err != nil || blocker == nil {
		t.Fatalf("blocker submit: rep-from-cache or err=%v", err)
	}
	waitState(t, blocker, JobRunning)

	// Two identical submissions coalesce into one queued job.
	_, j1, err := s.Submit(Request{Policy: "delta2"})
	if err != nil {
		t.Fatal(err)
	}
	_, j2, err := s.Submit(Request{Policy: "delta2"})
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Errorf("identical concurrent submissions got distinct jobs %s and %s", j1.ID(), j2.ID())
	}
	if got := s.Stats().JobsCoalesced; got != 1 {
		t.Errorf("JobsCoalesced = %d, want 1", got)
	}

	// The queue (depth 1) now holds the delta2 job: a distinct
	// submission must bounce with ErrQueueFull.
	if _, _, err := s.Submit(Request{Policy: "null"}); err != ErrQueueFull {
		t.Errorf("overflow submit returned %v, want ErrQueueFull", err)
	}

	// Cancel the blocker; the queued job then completes.
	blocker.Cancel()
	if rep, errMsg := waitDone(t, blocker); rep != nil || errMsg == "" {
		t.Errorf("cancelled blocker: report=%v err=%q", rep, errMsg)
	}
	if rep, _ := waitDone(t, j1); rep == nil || !rep.Passed() {
		t.Errorf("queued delta2 job did not complete cleanly")
	}

	// The cancelled job left no cache entries and no coalescing index:
	// resubmitting it queues a fresh job.
	_, fresh, err := s.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	if fresh == nil || fresh == blocker {
		t.Fatalf("resubmission after cancel did not create a fresh job")
	}
	fresh.Cancel()
	waitDone(t, fresh)
}

func TestStatsLatencyAccounting(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	submitWait(t, s, Request{Policy: "delta2", Obligations: []string{"lemma1", "steal-soundness"}})
	st := s.Stats()
	if st.CacheEntries != 2 {
		t.Errorf("CacheEntries = %d, want 2", st.CacheEntries)
	}
	for _, id := range []string{"lemma1", "steal-soundness"} {
		o := st.Obligations[id]
		if o.Runs != 1 || o.TotalNs <= 0 || o.MeanNs <= 0 || o.MaxNs < o.MeanNs {
			t.Errorf("obligation %s stats %+v not accounted", id, o)
		}
	}
	if _, ok := st.Obligations["reactivity"]; ok {
		t.Error("unrequested obligation has latency stats")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	bad := []Request{
		{},                                   // no policy at all
		{Policy: "delta2", Source: "policy"}, // both sources
		{Policy: "nope"},                     // unknown name
		{Source: "policy x {"},               // broken DSL
		{Policy: "delta2", Obligations: []string{"bogus"}},            // unknown obligation
		{Policy: "delta2", Obligations: []string{"lemma1", "lemma1"}}, // duplicate
		{Policy: "delta2", Universe: &UniverseSpec{Cores: -1}},        // bad universe
	}
	for i, req := range bad {
		if _, _, err := s.Submit(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

// A universe too wide for the schedule counter is the client's error: a
// 400 that says why, before any key is hashed or job queued.
func TestSubmitRejectsUniverseWiderThanTheScheduleCounterHTTP(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := `{"policy":"delta2","universe":{"cores":21,"max_per_core":1,"max_total":1}}`
	resp, err := http.Post(srv.URL+"/v1/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "SchedulesChecked") {
		t.Errorf("21-core universe: %d %s, want 400 naming the schedule counter", resp.StatusCode, raw)
	}
	if st := s.Stats(); st.CacheMisses != 0 {
		t.Errorf("rejected submission still cost %d memo misses", st.CacheMisses)
	}
}
