// Package service is the incremental verification service behind
// cmd/schedverifyd: a long-running daemon that keeps machine-checked
// scheduler verdicts hot and re-verifies only what a delta invalidates.
//
// Clients submit a policy (DSL source or registered policy.Spec name)
// plus a bounded universe and receive either a memoized verdict — a
// verify.Report byte-identical to what a cold run would print — or a
// queued job handle to poll. Results are memoized per (policy
// components, universe, obligation, verifier version) under content
// hashes (see key.go), so a one-clause DSL edit re-runs only the
// obligations whose checkers consult that clause, not all eight.
//
// The execution layer is the existing sharded worker-pool driver
// (verify.PolicyContext): per-job context cancellation, deterministic
// shard merges, reports independent of parallelism level and of which
// obligations run together — which is exactly what makes memoized
// per-obligation Results safe to splice into fresh reports.
//
// A job waits once on each thing it waits on: its memo misses run as one
// fan-out (every shard of every missing obligation through one pool, one
// join), its fresh results reach the durable store as one batch (one
// fsync), and whoever polls it is woken by its done channel rather than
// by a timer (see the wait parameter in http.go).
package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service/faultinject"
	"repro/internal/service/store"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// Config parameterizes a Service.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run; a full queue
	// makes Submit fail with ErrQueueFull (HTTP 429 + Retry-After).
	// Zero means 64.
	QueueDepth int
	// Workers is the number of jobs executing concurrently. Zero means
	// 2 — each job already fans its obligation shards out over
	// Parallelism goroutines, so a few job slots saturate a machine.
	Workers int
	// Parallelism is the per-job verify worker-pool size (see
	// verify.Config.Parallelism). Zero means GOMAXPROCS. The level never
	// changes results, so it is not part of any cache key.
	Parallelism int
	// MaxRounds caps the sequential convergence loops (see
	// verify.Config.MaxRounds). Zero means verify.DefaultMaxRounds. It
	// can change the verdict of every obligation that reads it
	// (verify.ReadsMaxRounds), so it is part of those obligations' cache
	// keys.
	MaxRounds int
	// RetryAfter is the backoff advertised to clients when the queue is
	// full. Zero means 1s.
	RetryAfter time.Duration
	// DataDir enables the durable memo store: memoized results are
	// WAL-appended under this directory and recovered at New, so a warm
	// restart replays byte-identical verdicts with zero obligation
	// re-runs (see internal/service/store). Empty keeps the memo
	// in-memory only.
	DataDir string
}

// Option tunes a Service beyond Config — the knobs that carry live
// objects rather than plain settings.
type Option func(*Service)

// WithFaults arms the chaos-testing fault-injection rule set: injected
// disk failures, torn WAL writes, checker panics and worker stalls fire
// at the service's and store's fault points (see faultinject). The
// daemon surfaces this as the hidden -faults flag.
func WithFaults(f *faultinject.Set) Option {
	return func(s *Service) { s.faults = f }
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = verify.DefaultMaxRounds
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// ErrQueueFull is returned by Submit when the job queue is at capacity;
// the HTTP layer maps it to 429 with a Retry-After header.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// ErrDraining is returned by Submit while the service drains toward
// shutdown; the HTTP layer maps it to 503, and /readyz reports it.
var ErrDraining = errors.New("service: draining")

// maxRetainedJobs bounds the finished-job history a long-running daemon
// keeps for polling; the oldest finished jobs are evicted beyond it.
const maxRetainedJobs = 1024

// Service is the incremental verifier. Create with New, serve over HTTP
// via Handler, stop with Close.
type Service struct {
	cfg    Config
	cache  *resultCache
	store  *store.Store // nil without Config.DataDir
	faults *faultinject.Set

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	seq       int64
	jobs      map[string]*Job
	byKey     map[contentKey]*Job // jobKey -> live (queued/running) job, for coalescing
	doneOrder []string            // finished job ids, oldest first (retention ring)

	draining atomic.Bool

	jobsSubmitted   atomic.Int64
	jobsCoalesced   atomic.Int64
	jobsCompleted   atomic.Int64
	jobsCancelled   atomic.Int64
	servedFromCache atomic.Int64
	checkerPanics   atomic.Int64
	cacheFlushes    atomic.Int64

	obMu    sync.Mutex
	obStats map[verify.ObligationID]*obAgg
}

// obAgg accumulates per-obligation verification latency (cache misses
// only — hits never run the checker).
type obAgg struct {
	runs    int64
	totalNs int64
	maxNs   int64
}

// New starts a Service with cfg.Workers job executors. With
// Config.DataDir set it first recovers the durable memo store —
// corruption there never fails New (bad tails are truncated, see
// internal/service/store); only real I/O errors do.
func New(cfg Config, opts ...Option) (*Service, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
		byKey:   make(map[contentKey]*Job),
		obStats: make(map[verify.ObligationID]*obAgg),
	}
	for _, opt := range opts {
		opt(s)
	}
	var seed map[string]verify.Result
	if cfg.DataDir != "" {
		st, entries, err := store.Open(cfg.DataDir, store.Options{Faults: s.faults})
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = st
		seed = entries
	}
	s.cache = newResultCache(seed)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	return s, nil
}

// Ready reports whether the service accepts new submissions (it stops
// during drain and after Close); /readyz serves this, distinct from
// /healthz liveness.
func (s *Service) Ready() bool {
	if s.draining.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Drain flips the service to not-ready (new submissions fail with
// ErrDraining, /readyz goes 503) and waits for every queued and running
// job to reach a terminal state, or for ctx to expire — the graceful
// half of shutdown. Poll handlers keep working throughout, so clients
// can still collect finished reports. Call Close afterwards to cancel
// whatever outlived the deadline.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// Every live job is in byKey, and no job joins it once draining is
	// set (enqueue checks under the same lock).
	s.mu.Lock()
	live := make([]*Job, 0, len(s.byKey))
	//schedlint:allow determinism every live job is awaited below; the order they are collected in reaches nothing
	for _, job := range s.byKey {
		live = append(live, job)
	}
	s.mu.Unlock()
	for _, job := range live {
		select {
		case <-job.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Close cancels every running job, rejects further submissions, waits
// for the workers to drain and closes the durable store. The workers
// take every job still queued through finish (cancelled before start),
// so nobody waiting on a job outlives Close.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.draining.Store(true)
	s.cancel()
	close(s.queue)
	s.wg.Wait()
	if s.store != nil {
		s.store.Close()
	}
}

// submission is a resolved, validated request: a concrete factory plus
// the content-hash keys of every requested obligation.
type submission struct {
	display     string // report header name
	factory     verify.Factory
	universe    statespace.Universe
	obligations []verify.ObligationID
	keys        []contentKey // parallel to obligations
	jobKey      contentKey
	timeout     time.Duration // client-propagated deadline; 0 = none
	// memoryOnly keeps the submission's cells out of the durable store:
	// a Go-only spec's component forms are the opaque "go:<name>", which
	// name the code rather than hash it, so a rebuilt daemon would serve
	// a changed implementation the old verdicts from disk.
	memoryOnly bool
	// warnings are the DSL linter's findings for source submissions:
	// advisory only, echoed in submit and poll responses, never part of
	// the content identity (they restate the policy, not the verdict).
	warnings []dsl.Diagnostic
}

// resolve validates a request and computes its content identity.
func (s *Service) resolve(req Request) (*submission, error) {
	sub := &submission{}
	// Every content key's fields are laid out in this one buffer.
	var keyBuf [1024]byte
	switch {
	case req.Policy != "" && req.Source != "":
		return nil, fmt.Errorf("service: request carries both a policy name and DSL source")
	case req.Policy != "":
		spec, ok := policy.Lookup(req.Policy)
		if !ok {
			return nil, fmt.Errorf("service: unknown policy %q (known: %v)", req.Policy, policy.Names())
		}
		forms, err := spec.ComponentForms()
		if err != nil {
			return nil, err
		}
		sub.display = spec.Name
		sub.factory = func() sched.Policy { return spec.New(nil) }
		sub.memoryOnly = spec.DSL == ""
		sub.keys, sub.obligations, err = s.keysFor(req, forms, keyBuf[:0])
		if err != nil {
			return nil, err
		}
	case req.Source != "":
		ast, err := dsl.Parse(req.Source)
		if err != nil {
			return nil, err
		}
		sub.display = ast.Name
		sub.factory = func() sched.Policy { return dsl.Compile(ast) }
		sub.keys, sub.obligations, err = s.keysFor(req, dsl.ComponentForms(ast), keyBuf[:0])
		if err != nil {
			return nil, err
		}
		sub.warnings = dsl.Analyze(ast, dsl.AnalyzeOptions{MaxFaults: req.universe().MaxFaults})
	default:
		return nil, fmt.Errorf("service: request needs a policy name or DSL source")
	}
	sub.universe = req.universe()
	sub.jobKey = jobKeyOf(keyBuf[:0], sub.display, sub.keys)
	if req.TimeoutMs < 0 {
		return nil, fmt.Errorf("service: negative timeout_ms %d", req.TimeoutMs)
	}
	sub.timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	return sub, nil
}

// keysFor resolves the requested obligations and their content keys,
// laying each key's fields out in buf.
func (s *Service) keysFor(req Request, forms map[string]string, buf []byte) ([]contentKey, []verify.ObligationID, error) {
	obligations := verify.AllObligations()
	if len(req.Obligations) > 0 {
		obligations = make([]verify.ObligationID, len(req.Obligations))
		seen := make(map[verify.ObligationID]bool, len(req.Obligations))
		for i, name := range req.Obligations {
			id := verify.ObligationID(name)
			if !verify.KnownObligation(id) {
				return nil, nil, fmt.Errorf("service: unknown obligation %q (known: %v)", name, verify.AllObligations())
			}
			if seen[id] {
				return nil, nil, fmt.Errorf("service: duplicate obligation %q", name)
			}
			seen[id] = true
			obligations[i] = id
		}
	}
	u := req.universe()
	if err := u.Validate(); err != nil {
		return nil, nil, err
	}
	canon := u.Canonical()
	keys := make([]contentKey, len(obligations))
	for i, id := range obligations {
		buf = appendObligationFields(buf[:0], forms, canon, id, s.cfg.MaxRounds)
		keys[i] = sha256.Sum256(buf)
	}
	return keys, obligations, nil
}

// Submit resolves and either answers from the cache, coalesces onto an
// identical in-flight job, or enqueues a new job. Exactly one of the
// returns is non-nil on success: a report (every obligation memoized —
// byte-identical to a cold run) or a job to poll. A full queue returns
// ErrQueueFull.
func (s *Service) Submit(req Request) (*verify.Report, *Job, error) {
	rep, job, _, err := s.submit(req)
	return rep, job, err
}

// submit is Submit plus the resolved submission's advisory linter
// warnings — the HTTP layer threads them into response envelopes.
func (s *Service) submit(req Request) (*verify.Report, *Job, []dsl.Diagnostic, error) {
	sub, err := s.resolve(req)
	if err != nil {
		return nil, nil, nil, err
	}

	// Fast path: every obligation memoized.
	if results, ok := s.cache.lookupAll(sub.keys); ok {
		s.servedFromCache.Add(1)
		return sub.report(results), nil, sub.warnings, nil
	}
	rep, job, err := s.enqueue(sub)
	return rep, job, sub.warnings, err
}

// enqueue coalesces onto a live identical job that is not cancelled, or
// queues a new one.
func (s *Service) enqueue(sub *submission) (*verify.Report, *Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	if s.draining.Load() {
		return nil, nil, ErrDraining
	}
	// A cancelled job is winding down and will report its cancellation:
	// a submission that arrives meanwhile gets a job of its own, which
	// takes the key (finish leaves a newer job's entry alone).
	if live, ok := s.byKey[sub.jobKey]; ok && live.ctx.Err() == nil {
		s.jobsCoalesced.Add(1)
		return nil, live, nil
	}
	s.seq++
	// A client-propagated deadline bounds the job even after the submit
	// round-trip has returned 202. Coalesced later submissions inherit
	// the first submission's deadline (the job is shared; cache entries
	// are written either way).
	var ctx context.Context
	var cancel context.CancelFunc
	if sub.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.ctx, sub.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.ctx)
	}
	job := &Job{
		id:       fmt.Sprintf("j-%d", s.seq),
		sub:      sub,
		ctx:      ctx,
		cancelFn: cancel,
		done:     make(chan struct{}),
		state:    JobQueued,
	}
	select {
	case s.queue <- job:
	default:
		cancel()
		return nil, nil, ErrQueueFull
	}
	s.jobs[job.id] = job
	s.byKey[sub.jobKey] = job
	s.jobsSubmitted.Add(1)
	return nil, job, nil
}

// Job looks up a job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one job on a worker: memoized obligations splice in
// from the cache, the misses run together as one fan-out on the sharded
// driver — byte-identical per obligation to running each alone: same
// shards, same merge — and the completed ones are stored, in memory and,
// with a durable store, WAL-committed as one batch before the job can
// report them.
func (s *Service) runJob(job *Job) {
	job.mu.Lock()
	if job.ctx.Err() != nil {
		job.mu.Unlock()
		s.finish(job, nil, "cancelled before start: "+job.ctx.Err().Error())
		return
	}
	job.state = JobRunning
	job.mu.Unlock()

	s.faults.Check(faultinject.OpWorker, "") // chaos: injected worker stall

	sub := job.sub
	cfg := verify.Config{
		Universe:    sub.universe,
		MaxRounds:   s.cfg.MaxRounds,
		Parallelism: s.cfg.Parallelism,
	}
	results := make([]verify.Result, len(sub.obligations))
	var misses []int // indexes into results of the obligations to run
	for i, id := range sub.obligations {
		if res, ok := s.cache.lookup(sub.keys[i]); ok {
			results[i] = res
		} else if res, crashed := s.checkerFault(id); crashed {
			results[i] = res
		} else {
			misses = append(misses, i)
			cfg.Obligations = append(cfg.Obligations, id)
		}
	}
	if len(misses) == 0 {
		s.finish(job, sub.report(results), "")
		return
	}
	rep, _ := verify.PolicyContext(job.ctx, sub.display, sub.factory, cfg)
	cancelled := ""
	var fresh []store.Entry // what the durable store, if any, has to commit
	for k, i := range misses {
		res := rep.Results[k]
		results[i] = res
		switch {
		case !res.Aborted:
			s.recordLatency(res.ID, rep.Elapsed[k])
			s.cache.store(sub.keys[i], res)
			if s.store != nil && !sub.memoryOnly {
				fresh = append(fresh, store.Entry{Key: sub.keys[i].String(), Result: res})
			}
		case job.ctx.Err() == nil:
			// Aborted without cancellation means a shard panicked: the
			// driver contained it, the result says so, and it is never
			// cached — the next submission re-runs the checker.
			s.checkerPanics.Add(1)
		case cancelled == "":
			cancelled = "cancelled: " + res.Witness
		}
	}
	// A cancelled job still memoizes what it completed: those are valid
	// results, and the resubmission re-runs only the rest.
	if len(fresh) > 0 {
		// Disk failure degrades, never blocks: the in-memory cache still
		// serves the entries, and the store's append-error counters
		// surface the loss via /v1/stats.
		s.store.AppendBatch(fresh)
	}
	if cancelled != "" {
		s.finish(job, nil, cancelled)
		return
	}
	s.finish(job, sub.report(results), "")
}

// checkerFault is the per-obligation chaos hook, consulted for each memo
// miss before the fan-out: an injected checker panic is contained here,
// on the job goroutine, and becomes that obligation's ABORTED
// (never-cached) result — the other misses still run. Panics inside the
// checkers are contained per shard by the driver (see verify.runShard).
func (s *Service) checkerFault(id verify.ObligationID) (res verify.Result, crashed bool) {
	defer func() {
		if p := recover(); p != nil {
			s.checkerPanics.Add(1)
			res = verify.Result{
				ID:      id,
				Aborted: true,
				Witness: fmt.Sprintf("aborted: checker panic: %v", p),
			}
			crashed = true
		}
	}()
	s.faults.Check(faultinject.OpChecker, string(id))
	return verify.Result{}, false
}

// FlushCache is the admin flush behind DELETE /v1/cache: it drops every
// memoized result from memory and, with a durable store, from disk.
// In-flight jobs are unaffected (their results re-populate the memo).
func (s *Service) FlushCache() (int, error) {
	removed := s.cache.flush()
	s.cacheFlushes.Add(1)
	if s.store != nil {
		return removed, s.store.Flush()
	}
	return removed, nil
}

// finish moves a job to its terminal state, updates the indexes and
// wakes whoever waits on the job. Every job reaches it exactly once.
func (s *Service) finish(job *Job, rep *verify.Report, errMsg string) {
	job.mu.Lock()
	if rep != nil {
		job.state = JobDone
		job.report = rep
	} else {
		job.state = JobCancelled
		job.errMsg = errMsg
	}
	job.mu.Unlock()
	if rep != nil {
		s.jobsCompleted.Add(1)
	} else {
		s.jobsCancelled.Add(1)
	}

	s.mu.Lock()
	if s.byKey[job.sub.jobKey] == job {
		delete(s.byKey, job.sub.jobKey)
	}
	s.doneOrder = append(s.doneOrder, job.id)
	for len(s.doneOrder) > maxRetainedJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.mu.Unlock()
	close(job.done)
}

func (s *Service) recordLatency(id verify.ObligationID, d time.Duration) {
	s.obMu.Lock()
	defer s.obMu.Unlock()
	agg := s.obStats[id]
	if agg == nil {
		agg = &obAgg{}
		s.obStats[id] = agg
	}
	agg.runs++
	agg.totalNs += int64(d)
	if int64(d) > agg.maxNs {
		agg.maxNs = int64(d)
	}
}

// report assembles the submission's verify.Report from per-obligation
// results, in the submission's obligation order. Because every Result
// came from the same deterministic sharded driver, the assembled report
// is byte-identical (under verify.ReportJSON) to a cold PolicyContext
// run of the same submission.
func (sub *submission) report(results []verify.Result) *verify.Report {
	return &verify.Report{
		Policy:   sub.display,
		Universe: sub.universe.String(),
		Results:  results,
	}
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		VerifierVersion: verify.Version,
		CacheHits:       s.cache.hits.Load(),
		CacheMisses:     s.cache.misses.Load(),
		CacheEntries:    s.cache.len(),
		QueueDepth:      len(s.queue),
		QueueCapacity:   s.cfg.QueueDepth,
		JobsSubmitted:   s.jobsSubmitted.Load(),
		JobsCoalesced:   s.jobsCoalesced.Load(),
		JobsCompleted:   s.jobsCompleted.Load(),
		JobsCancelled:   s.jobsCancelled.Load(),
		ServedFromCache: s.servedFromCache.Load(),
		CheckerPanics:   s.checkerPanics.Load(),
		CacheFlushes:    s.cacheFlushes.Load(),
		Draining:        s.draining.Load(),
		Obligations:     make(map[string]ObligationStats),
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	s.obMu.Lock()
	defer s.obMu.Unlock()
	for id, agg := range s.obStats {
		o := ObligationStats{Runs: agg.runs, TotalNs: agg.totalNs, MaxNs: agg.maxNs}
		if agg.runs > 0 {
			o.MeanNs = agg.totalNs / agg.runs
		}
		st.Obligations[string(id)] = o
	}
	return st
}
