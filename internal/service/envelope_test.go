package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/verify"
)

// rawEnvelope is SubmitResponse as it was when the report rode in it as
// the verify.ReportJSON document (a json.RawMessage): the recipe whose
// bytes the wire keeps.
type rawEnvelope struct {
	Status   string           `json:"status"`
	Cached   bool             `json:"cached,omitempty"`
	JobID    string           `json:"job_id,omitempty"`
	Poll     string           `json:"poll,omitempty"`
	Passed   *bool            `json:"passed,omitempty"`
	Error    string           `json:"error,omitempty"`
	Report   json.RawMessage  `json:"report,omitempty"`
	Warnings []dsl.Diagnostic `json:"warnings,omitempty"`
}

// rawDoneEnvelope renders a done envelope by that recipe; a job's
// carries its jobID.
func rawDoneEnvelope(t *testing.T, rep *verify.Report, cached bool, jobID string, warnings []dsl.Diagnostic) []byte {
	t.Helper()
	data, err := verify.ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	passed := rep.Passed()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rawEnvelope{Status: "done", Cached: cached, JobID: jobID, Passed: &passed, Report: data, Warnings: warnings}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submitWarnings is submitWait for the HTTP handlers' view: the finished
// report and the submission's linter warnings.
func submitWarnings(t *testing.T, s *Service, req Request) (*verify.Report, []dsl.Diagnostic) {
	t.Helper()
	rep, job, warnings, err := s.submit(req)
	if err != nil {
		t.Fatalf("submit %+v: %v", req, err)
	}
	if rep == nil {
		if rep, _ = waitDone(t, job); rep == nil {
			t.Fatalf("job %s cancelled", job.ID())
		}
	}
	return rep, warnings
}

// getRaw fetches url and returns the response body's bytes.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// The report rides in the envelope as a value, encoded once by the
// envelope's indented encoder; the bytes on the wire must be exactly the
// ones the embedded verify.ReportJSON document produced: every registered
// policy on the default and a one-fault universe, cached or polled, and a
// source submission that carries warnings. Refutation witnesses carry
// "->", which encoding/json writes as "-\u003e" on both paths. A waited
// submit that runs a job answers with the job's done envelope: the bytes
// the done poll sends, job_id included.
func TestDoneEnvelopeBytesUnchanged(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	oneFault := UniverseSpecOf(verify.DefaultUniverse())
	oneFault.MaxFaults = 1
	var reqs []Request
	for _, name := range policy.Names() {
		reqs = append(reqs, Request{Policy: name}, Request{Policy: name, Universe: &oneFault})
	}
	reqs = append(reqs, Request{Source: shadowedSource})
	refuted, warned, escaped, waited := 0, 0, 0, 0
	for _, req := range reqs {
		code, env, body := postTo(t, srv.URL+"/v1/verify?wait=30s", req)
		if code != http.StatusOK || env.Status != "done" {
			t.Fatalf("%+v: waited submit answered %d %+v, want 200 done", req, code, env)
		}
		rep, warnings := submitWarnings(t, s, req) // a memo hit now
		if !env.Cached {
			waited++
			if env.JobID == "" {
				t.Errorf("%s on %s: a job's waited submit answered without its job_id", rep.Policy, rep.Universe)
			}
			if polled := getRaw(t, srv.URL+"/v1/jobs/"+env.JobID); !bytes.Equal(body, polled) {
				t.Errorf("%s on %s: waited submit and done poll differ:\nsubmit %s\n  poll %s", rep.Policy, rep.Universe, body, polled)
			}
			if want := rawDoneEnvelope(t, rep, false, env.JobID, warnings); !bytes.Equal(body, want) {
				t.Errorf("%s on %s: waited envelope bytes changed:\n got %s\nwant %s", rep.Policy, rep.Universe, body, want)
			}
		}
		if !rep.Passed() {
			refuted++
		}
		if len(warnings) > 0 {
			warned++
		}
		for _, cached := range []bool{true, false} {
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, doneResponse(rep, cached, warnings))
			if bytes.Contains(rec.Body.Bytes(), []byte(`\u003e`)) {
				escaped++
			}
			if want := rawDoneEnvelope(t, rep, cached, "", warnings); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s on %s (cached %v): envelope bytes changed:\n got %s\nwant %s",
					rep.Policy, rep.Universe, cached, rec.Body.Bytes(), want)
			}
		}
	}
	t.Logf("%d envelopes: %d refuted reports, %d with warnings, %d with an escaped '>'; %d waited submits ran a job",
		2*len(reqs), refuted, warned, escaped, waited)
	if refuted == 0 || warned == 0 || escaped == 0 || waited < len(reqs)/2 {
		t.Error("the corpus must reach a refuted report, warnings, an escaped '>' and mostly waited jobs")
	}
}

// Wrapping a report in the done envelope allocates nothing: the report
// is encoded once, by the envelope's writer, never into a buffer of its
// own first.
func TestDoneResponseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what escapes to the heap")
	}
	rep := &verify.Report{Policy: "p", Universe: "u", Results: []verify.Result{{ID: verify.ObLemma1, Passed: true}}}
	var sink SubmitResponse
	got := testing.AllocsPerRun(100, func() { sink = doneResponse(rep, true, nil) })
	if got != 0 || !*sink.Passed || sink.Report != rep {
		t.Errorf("doneResponse allocates %.0f objects (want 0), passed %v, report %p (want %p)", got, *sink.Passed, sink.Report, rep)
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its header.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// writeJSON indents into a recycled buffer: answering a ten-obligation
// done envelope allocates the two header values and the Content-Length
// digits, and nothing that grows with the envelope. A fresh indenting
// json.Encoder per response, with an indent buffer grown from nothing,
// cost 11 objects here.
func TestWriteJSONAllocationsDoNotGrowWithTheEnvelope(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what escapes to the heap")
	}
	rep := &verify.Report{Policy: "delta2", Universe: verify.DefaultUniverse().String()}
	for _, id := range verify.AllObligations() {
		rep.Results = append(rep.Results, verify.Result{ID: id, Passed: true, StatesChecked: 1234, SchedulesChecked: 56789})
	}
	if len(rep.Results) != 10 {
		t.Fatalf("%d obligations, the pin is sized for 10", len(rep.Results))
	}
	env := doneResponse(rep, false, nil)
	env.JobID = "j-1"
	var v any = env // boxed once: the handler's conversion is not writeJSON's
	w := &discardWriter{h: make(http.Header)}
	writeJSON(w, http.StatusOK, v) // warm the pool
	got := testing.AllocsPerRun(100, func() { writeJSON(w, http.StatusOK, v) })
	t.Logf("writeJSON of a ten-obligation done envelope (%s bytes): %.0f objects", w.h.Get("Content-Length"), got)
	if got > 3 {
		t.Errorf("writeJSON allocates %.0f objects per response, want at most 3", got)
	}
}
