package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dsl"
	"repro/internal/verify"
)

// HTTP/JSON surface of the daemon:
//
//	POST   /v1/verify     submit a Request; 200 done (cache), 202 queued,
//	                      400 bad request, 413 body over maxRequestBytes,
//	                      429 queue full (+ Retry-After), 503 draining or
//	                      closed
//	GET    /v1/jobs/{id}  poll a job; includes the report when done.
//	                      With ?wait=<duration> (e.g. 30s, 250ms) the
//	                      answer is held until the job is terminal, the
//	                      wait — capped at 30s — elapses, or the
//	                      client goes away: a long-poll, one wake-up per
//	                      verdict. A missing, malformed or negative wait
//	                      means none: the poll answers at once.
//	DELETE /v1/jobs/{id}  cancel a job
//	GET    /v1/stats      Stats snapshot (cache, queue, durable store)
//	DELETE /v1/cache      admin flush of the memo, memory and disk
//	GET    /healthz       liveness (the process is up)
//	GET    /readyz        readiness (submissions accepted); 503 while
//	                      draining — polls still work then, so clients
//	                      collect finished reports during shutdown
//
// The daemon, not the client, chooses the wait: the `poll` URL it hands
// out in 202 and non-terminal poll envelopes already carries
// ?wait=30s (maxPollWait), so a client that follows `poll` verbatim
// long-polls and needs no timer of its own. (A client whose own HTTP
// timeout is shorter lowers the value it sends — that is the one thing
// it knows and the daemon does not.) POST /v1/verify never waits: a memo
// hit answers on the submit round trip, anything else answers 202 at
// once.
//
// Submit and poll responses share the SubmitResponse envelope. The report
// rides in it as a value, encoded once: the bytes verify.ReportJSON (and
// `schedverify -json`) prints, re-indented one level deeper. Re-encode the
// decoded `report` with verify.ReportJSON to byte-compare requests.

// maxPollWait caps the ?wait= of a job poll and is the wait the daemon
// advertises in the poll URLs it hands out. It stays well under the idle
// timeouts of common proxies; an http.Server in front of Handler must
// not set a WriteTimeout below it.
const maxPollWait = 30 * time.Second

// maxRequestBytes caps a submission's body. A policy source is a few
// hundred bytes; the cap keeps one request from making the daemon
// buffer, lex and parse an unbounded input.
const maxRequestBytes = 1 << 20

// pollURL is the URL a client should poll a live job at.
func pollURL(id string) string {
	return "/v1/jobs/" + id + "?wait=" + maxPollWait.String()
}

// pollWait reads a poll request's wait parameter.
func pollWait(r *http.Request) time.Duration {
	wait, err := time.ParseDuration(r.URL.Query().Get("wait"))
	if err != nil || wait < 0 {
		return 0
	}
	return min(wait, maxPollWait)
}

// SubmitResponse is the envelope of submit and poll responses.
type SubmitResponse struct {
	// Status is "done", "queued", "running" or "cancelled".
	Status string `json:"status"`
	// Cached is true when a submit was answered entirely from the memo
	// without queueing a job.
	Cached bool `json:"cached,omitempty"`
	// JobID and Poll identify the job to poll when Status is not "done".
	JobID string `json:"job_id,omitempty"`
	Poll  string `json:"poll,omitempty"`
	// Passed summarizes the report verdict when Status is "done".
	Passed *bool `json:"passed,omitempty"`
	// Error carries the cancellation or failure message.
	Error string `json:"error,omitempty"`
	// Report is the verdict when Status is "done".
	Report *verify.Report `json:"report,omitempty"`
	// Warnings are the DSL semantic linter's findings for source
	// submissions (dsl.Analyze): advisory only — they never block
	// verification, never affect the verdict or the cache key, and are
	// emitted in deterministic order on both submit and poll responses.
	Warnings []dsl.Diagnostic `json:"warnings,omitempty"`
}

// Handler returns the daemon's HTTP handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("DELETE /v1/cache", s.handleCacheFlush)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "verifier_version": verify.Version})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Ready() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	})
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	rep, job, warnings, err := s.submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter/time.Second)+1))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	case rep != nil:
		writeJSON(w, http.StatusOK, doneResponse(rep, true, warnings))
	default:
		state, _, _ := job.Snapshot()
		writeJSON(w, http.StatusAccepted, SubmitResponse{
			Status:   string(state),
			JobID:    job.ID(),
			Poll:     pollURL(job.ID()),
			Warnings: warnings,
		})
	}
}

func (s *Service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if wait := pollWait(r); wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-job.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
		timer.Stop()
	}
	state, rep, errMsg := job.Snapshot()
	resp := SubmitResponse{Status: string(state), JobID: job.ID(), Error: errMsg, Warnings: job.sub.warnings}
	if state == JobDone {
		resp = doneResponse(rep, false, job.sub.warnings)
		resp.JobID = job.ID()
	} else if state != JobCancelled {
		resp.Poll = pollURL(job.ID())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	job.Cancel()
	state, _, _ := job.Snapshot()
	writeJSON(w, http.StatusAccepted, SubmitResponse{Status: string(state), JobID: job.ID()})
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleCacheFlush(w http.ResponseWriter, _ *http.Request) {
	removed, err := s.FlushCache()
	if err != nil {
		// The in-memory flush already happened; report the disk half.
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"flushed": removed, "error": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"flushed": removed})
}

// verdicts back Passed (read-only), so wrapping a report allocates nothing.
var verdicts = [2]bool{false, true}

// doneResponse wraps a finished report in the envelope.
func doneResponse(rep *verify.Report, cached bool, warnings []dsl.Diagnostic) SubmitResponse {
	passed := &verdicts[0]
	if rep.Passed() {
		passed = &verdicts[1]
	}
	return SubmitResponse{Status: "done", Cached: cached, Passed: passed, Report: rep, Warnings: warnings}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
