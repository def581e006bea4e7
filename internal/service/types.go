package service

import (
	"context"
	"sync"

	"repro/internal/service/store"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// Request is one verification submission: a policy given either by
// registered name or as DSL source, a bounded universe (nil selects the
// verifier's default 3-core/5-thread universe), and an optional
// obligation subset (nil means all).
type Request struct {
	// Policy names a registered policy.Spec (mutually exclusive with
	// Source).
	Policy string `json:"policy,omitempty"`
	// Source is DSL policy source (mutually exclusive with Policy).
	Source string `json:"source,omitempty"`
	// Universe bounds the state space; nil means the default universe.
	Universe *UniverseSpec `json:"universe,omitempty"`
	// Obligations restricts the checked obligations; nil means all.
	Obligations []string `json:"obligations,omitempty"`
	// TimeoutMs propagates the client's request deadline: a queued job
	// is cancelled this many milliseconds after submission even though
	// the submit round-trip already returned. Zero means no deadline.
	// Deliberately not part of any cache or coalescing key.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// universe resolves the request's universe, defaulting like the
// verifier does.
func (r Request) universe() statespace.Universe {
	if r.Universe == nil {
		return verify.DefaultUniverse()
	}
	return r.Universe.Universe()
}

// UniverseSpec is the wire form of statespace.Universe.
type UniverseSpec struct {
	Cores              int     `json:"cores"`
	MaxPerCore         int     `json:"max_per_core"`
	MaxTotal           int     `json:"max_total,omitempty"`
	Weights            []int64 `json:"weights,omitempty"`
	IncludeUnscheduled bool    `json:"include_unscheduled"`
	Groups             []int   `json:"groups,omitempty"`
	MaxFaults          int     `json:"max_faults,omitempty"`
}

// Universe converts the wire form.
func (u UniverseSpec) Universe() statespace.Universe {
	return statespace.Universe{
		Cores:              u.Cores,
		MaxPerCore:         u.MaxPerCore,
		MaxTotal:           u.MaxTotal,
		Weights:            u.Weights,
		IncludeUnscheduled: u.IncludeUnscheduled,
		Groups:             u.Groups,
		MaxFaults:          u.MaxFaults,
	}
}

// UniverseSpecOf converts a statespace.Universe to its wire form.
func UniverseSpecOf(u statespace.Universe) UniverseSpec {
	return UniverseSpec{
		Cores:              u.Cores,
		MaxPerCore:         u.MaxPerCore,
		MaxTotal:           u.MaxTotal,
		Weights:            u.Weights,
		IncludeUnscheduled: u.IncludeUnscheduled,
		Groups:             u.Groups,
		MaxFaults:          u.MaxFaults,
	}
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobCancelled JobState = "cancelled"
)

// Job is one queued or executed verification. Handles stay pollable
// after completion (up to the retention bound).
type Job struct {
	id       string
	sub      *submission
	ctx      context.Context
	cancelFn func()
	done     chan struct{} // closed by finish: the job is terminal

	mu     sync.Mutex
	state  JobState
	report *verify.Report
	errMsg string
}

// ID returns the job's handle.
func (j *Job) ID() string { return j.id }

// Cancel aborts the job: queued jobs never run, running jobs stop at
// the driver's next cancellation poll. Idempotent.
func (j *Job) Cancel() { j.cancelFn() }

// Snapshot returns the job's current state, its report (non-nil only
// when done) and its error message (non-empty only when cancelled).
func (j *Job) Snapshot() (JobState, *verify.Report, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.report, j.errMsg
}

// Stats is the /v1/stats snapshot.
type Stats struct {
	VerifierVersion string `json:"verifier_version"`
	CacheHits       int64  `json:"cache_hits"`
	CacheMisses     int64  `json:"cache_misses"`
	CacheEntries    int    `json:"cache_entries"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCapacity   int    `json:"queue_capacity"`
	JobsSubmitted   int64  `json:"jobs_submitted"`
	JobsCoalesced   int64  `json:"jobs_coalesced"`
	JobsCompleted   int64  `json:"jobs_completed"`
	JobsCancelled   int64  `json:"jobs_cancelled"`
	ServedFromCache int64  `json:"served_from_cache"`
	// CheckerPanics counts obligation checkers that crashed and were
	// contained as ABORTED (never-cached) results.
	CheckerPanics int64 `json:"checker_panics,omitempty"`
	// CacheFlushes counts DELETE /v1/cache admin flushes.
	CacheFlushes int64 `json:"cache_flushes,omitempty"`
	// Draining reports the graceful-shutdown window: submissions are
	// rejected while finished jobs stay pollable.
	Draining bool `json:"draining,omitempty"`
	// Store carries the durable memo store's counters (WAL length,
	// snapshot size, recovery/truncation/append-error counts); nil when
	// the service runs memory-only.
	Store *store.Stats `json:"store,omitempty"`
	// Obligations maps obligation ID to verification latency over cache
	// misses (hits never run the checker).
	//schedlint:allow determinism Stats is an admin diagnostic document, not a cached report; sorted-key map rendering is fine here
	Obligations map[string]ObligationStats `json:"obligations"`
}

// ObligationStats is per-obligation checker latency.
type ObligationStats struct {
	Runs    int64 `json:"runs"`
	TotalNs int64 `json:"total_ns"`
	MeanNs  int64 `json:"mean_ns"`
	MaxNs   int64 `json:"max_ns"`
}
