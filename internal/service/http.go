package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/dsl"
	"repro/internal/verify"
)

// HTTP/JSON surface of the daemon:
//
//	POST   /v1/verify     submit a Request; 200 done (cache, or a job
//	                      that ended within the wait), 202 queued, 400 bad
//	                      request, 413 body over maxRequestBytes, 429
//	                      queue full (+ Retry-After), 503 draining or
//	                      closed. With ?wait=<duration> a queued job's
//	                      answer is held as a poll's is (below): 200 with
//	                      the job's done or cancelled envelope if it ends
//	                      in time, else 202. A client that goes away
//	                      mid-wait cancels the job.
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
// it knows and the daemon does not.) A memo hit answers on the submit
// round trip whatever the wait. A submit without ?wait= answers anything
// else 202 at once; one with it is a submit and a long-poll in one round
// trip, the way `Prefer: wait` asks for it (RFC 7240 §4.3), so a cold
// verdict costs one exchange instead of two.
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

// pollWait reads a submit's or a poll's wait parameter.
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
		if wait := pollWait(r); wait > 0 {
			if !awaitJob(r, job, wait) {
				// The client gave up on the job, as a client that
				// abandons a poll does with DELETE.
				job.Cancel()
			}
			if resp, terminal := jobResponse(job); terminal {
				writeJSON(w, http.StatusOK, resp)
				return
			}
		}
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
		awaitJob(r, job, wait)
	}
	resp, _ := jobResponse(job)
	writeJSON(w, http.StatusOK, resp)
}

// awaitJob holds r until job is terminal, wait elapses or r's client
// goes away, and reports whether the client is still there.
func awaitJob(r *http.Request, job *Job, wait time.Duration) bool {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-job.done:
	case <-timer.C:
	case <-r.Context().Done():
		return false
	}
	return true
}

// jobResponse is the envelope of job's current state, and whether that
// state is terminal: a done job's report, a cancelled job's error, or a
// live job's poll URL.
func jobResponse(job *Job) (SubmitResponse, bool) {
	state, rep, errMsg := job.Snapshot()
	switch state {
	case JobDone:
		resp := doneResponse(rep, false, job.sub.warnings)
		resp.JobID = job.ID()
		return resp, true
	case JobCancelled:
		return SubmitResponse{Status: string(state), JobID: job.ID(), Error: errMsg, Warnings: job.sub.warnings}, true
	}
	return SubmitResponse{Status: string(state), JobID: job.ID(), Poll: pollURL(job.ID()), Warnings: job.sub.warnings}, false
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

// jsonWriter is writeJSON's reusable state: an encoder that indents into
// buf and keeps its indent buffer from one response to the next.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := new(jsonWriter)
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// writeJSON answers v as JSON: marshalled, indented by two spaces and
// ended by a newline, with its Content-Length.
func writeJSON(w http.ResponseWriter, code int, v any) {
	jw := jsonWriters.Get().(*jsonWriter)
	jw.buf.Reset()
	jw.enc.Encode(v) // writes to a bytes.Buffer cannot fail; a marshal error leaves it empty
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(jw.buf.Len()))
	w.WriteHeader(code)
	w.Write(jw.buf.Bytes())
	jsonWriters.Put(jw)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
