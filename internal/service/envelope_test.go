package service

import (
	"bytes"
	"encoding/json"
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

// rawDoneEnvelope renders a done envelope by that recipe.
func rawDoneEnvelope(t *testing.T, rep *verify.Report, cached bool, warnings []dsl.Diagnostic) []byte {
	t.Helper()
	data, err := verify.ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	passed := rep.Passed()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rawEnvelope{Status: "done", Cached: cached, Passed: &passed, Report: data, Warnings: warnings}); err != nil {
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

// The report rides in the envelope as a value, encoded once by the
// envelope's indented encoder; the bytes on the wire must be exactly the
// ones the embedded verify.ReportJSON document produced: every registered
// policy on the default and a one-fault universe, cached or polled, and a
// source submission that carries warnings. Refutation witnesses carry
// "->", which encoding/json writes as "-\u003e" on both paths.
func TestDoneEnvelopeBytesUnchanged(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	oneFault := UniverseSpecOf(verify.DefaultUniverse())
	oneFault.MaxFaults = 1
	var reqs []Request
	for _, name := range policy.Names() {
		reqs = append(reqs, Request{Policy: name}, Request{Policy: name, Universe: &oneFault})
	}
	reqs = append(reqs, Request{Source: shadowedSource})
	refuted, warned, escaped := 0, 0, 0
	for _, req := range reqs {
		rep, warnings := submitWarnings(t, s, req)
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
			if want := rawDoneEnvelope(t, rep, cached, warnings); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s on %s (cached %v): envelope bytes changed:\n got %s\nwant %s",
					rep.Policy, rep.Universe, cached, rec.Body.Bytes(), want)
			}
		}
	}
	t.Logf("%d envelopes: %d refuted reports, %d with warnings, %d with an escaped '>'", 2*len(reqs), refuted, warned, escaped)
	if refuted == 0 || warned == 0 || escaped == 0 {
		t.Error("the corpus must reach a refuted report, warnings and an escaped '>'")
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
