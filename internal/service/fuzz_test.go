package service

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/verify"
)

// FuzzVerifyRequest decodes arbitrary bytes as a /v1/verify body the way
// handleSubmit does (one JSON value, unknown fields rejected) and
// resolves what decodes — never enqueueing it. Resolution must not
// panic, and an accepted submission must carry a universe that
// Validate accepts and exactly one content key per known obligation.
func FuzzVerifyRequest(f *testing.F) {
	src, err := os.ReadFile("../dsl/testdata/delta2.pol")
	if err != nil {
		f.Fatal(err)
	}
	source, _ := json.Marshal(string(src))
	for _, seed := range []string{
		`{"policy":"delta2"}`,
		`{"policy":"greedy-buggy","universe":{"cores":3,"max_per_core":3,"max_total":5,"include_unscheduled":true,"max_faults":1}}`,
		`{"source":` + string(source) + `,"obligations":["lemma1","reactivity"],"timeout_ms":500}`,
		`{"policy":"weighted","universe":{"cores":2,"max_per_core":2,"weights":[1,3],"groups":[0,1]}}`,
		`{"policy":"delta2","universe":{"cores":0,"max_per_core":1}}`,
		`{"policy":"delta2","obligations":["lemma1","lemma1"]}`,
		`{"policy":"delta2","source":"policy p {}"}`,
		`{"policy":"delta2","extra":1}`,
		`{"policy":"numa-aware","timeout_ms":-1}`,
	} {
		f.Add([]byte(seed))
	}
	s := MustNew(Config{Workers: 1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		sub, err := s.resolve(req)
		if err != nil {
			return
		}
		if err := sub.universe.Validate(); err != nil {
			t.Fatalf("accepted %q with an invalid universe: %v", body, err)
		}
		if len(sub.keys) == 0 || len(sub.keys) != len(sub.obligations) {
			t.Fatalf("accepted %q with %d keys for %d obligations", body, len(sub.keys), len(sub.obligations))
		}
		for i, id := range sub.obligations {
			if !verify.KnownObligation(id) || sub.keys[i] == (contentKey{}) {
				t.Fatalf("accepted %q: obligation %q has key %q", body, id, sub.keys[i])
			}
		}
	})
}
