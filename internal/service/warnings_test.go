package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dsl"
)

// A DSL policy with a deliberately shadowed filter disjunct: the right
// side of the || accepts only pairs the left side already accepts, so
// dsl.Analyze reports shadowed-clause. The policy still verifies — the
// linter is advisory, never a gate.
const shadowedSource = `policy shadowed {
    filter = stealee.nthreads > self.nthreads + 1 || stealee.nthreads > self.nthreads + 3
    choose = first
}`

// postVerify submits a request to the HTTP surface without a wait,
// returning the status code, the decoded envelope, and the raw body
// bytes for byte-comparison across requests.
func postVerify(t *testing.T, url string, req Request) (int, SubmitResponse, []byte) {
	t.Helper()
	return postTo(t, url+"/v1/verify", req)
}

// postTo is postVerify at a submit URL of the caller's, query included.
func postTo(t *testing.T, url string, req Request) (int, SubmitResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env SubmitResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decoding envelope: %v\n%s", err, raw)
	}
	return resp.StatusCode, env, raw
}

// pollJSON fetches a poll URL and decodes the envelope.
func pollJSON(t *testing.T, url string) SubmitResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env
}

// assertShadowed checks that the warnings are exactly the linter's
// verdict on shadowedSource: one shadowed-clause finding.
func assertShadowed(t *testing.T, warnings []dsl.Diagnostic, where string) {
	t.Helper()
	if len(warnings) != 1 || warnings[0].Code != "shadowed-clause" {
		t.Fatalf("%s: warnings = %+v, want exactly one shadowed-clause", where, warnings)
	}
}

// Warnings ride along the whole HTTP lifecycle of a source submission:
// the 202 queued envelope, every poll, the done poll, and the cached
// 200 — and identical submissions produce byte-identical envelopes.
func TestWarningsRoundTripHTTP(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := Request{Source: shadowedSource, Obligations: []string{"lemma1"}}

	code, env, _ := postVerify(t, srv.URL, req)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	assertShadowed(t, env.Warnings, "submit envelope")

	// Poll until done; warnings must be present on every poll response,
	// queued, running, or finished.
	if code == http.StatusAccepted {
		deadline := time.Now().Add(60 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			polled := pollJSON(t, srv.URL+env.Poll)
			assertShadowed(t, polled.Warnings, "poll ("+polled.Status+")")
			if polled.Status == "done" {
				if polled.Report == nil {
					t.Fatal("done poll carries no report")
				}
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Resubmission answers from the memo (200 done) and the warnings are
	// recomputed deterministically: byte-identical documents both times.
	code1, env1, raw1 := postVerify(t, srv.URL, req)
	code2, env2, raw2 := postVerify(t, srv.URL, req)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("warm resubmits = %d, %d, want 200", code1, code2)
	}
	if !env1.Cached || !env2.Cached {
		t.Errorf("warm resubmits not served from cache")
	}
	assertShadowed(t, env1.Warnings, "first warm envelope")
	assertShadowed(t, env2.Warnings, "second warm envelope")
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("identical submissions produced different envelopes:\n%s\n%s", raw1, raw2)
	}
}

// Named-policy submissions have no DSL source to lint: the warnings
// field must be absent from the wire document, not an empty array.
func TestWarningsAbsentForNamedPolicies(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := Request{Policy: "delta2", Obligations: []string{"lemma1"}}
	_, env, _ := postVerify(t, srv.URL, req)
	if len(env.Warnings) != 0 {
		t.Fatalf("named policy grew warnings: %+v", env.Warnings)
	}
	if env.Poll != "" {
		deadline := time.Now().Add(60 * time.Second)
		for pollJSON(t, srv.URL+env.Poll).Status != "done" {
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	_, warm, raw := postVerify(t, srv.URL, req)
	if len(warm.Warnings) != 0 {
		t.Fatalf("cached named policy grew warnings: %+v", warm.Warnings)
	}
	if bytes.Contains(raw, []byte(`"warnings"`)) {
		t.Errorf("empty warnings serialized onto the wire:\n%s", raw)
	}
}
