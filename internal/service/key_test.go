package service

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/verify"
)

// delta2Forms is the registered delta2 policy's component forms.
func delta2Forms(t *testing.T) map[string]string {
	t.Helper()
	spec, ok := policy.Lookup("delta2")
	if !ok {
		t.Fatal("delta2 is not registered")
	}
	forms, err := spec.ComponentForms()
	if err != nil {
		t.Fatal(err)
	}
	return forms
}

// Content keys are what the durable memo's WAL stores and what every
// data directory is looked up by. A change to these bytes orphans every
// durable memo — an upgraded daemon would miss on all of it — so it
// needs a migration, not a regenerated golden.
func TestObligationKeysArePinned(t *testing.T) {
	forms := delta2Forms(t)
	u := verify.DefaultUniverse()
	for id, want := range map[verify.ObligationID]string{
		verify.ObLemma1:         "f6b61d152f816920aa56a8c4a865ad574ea23a8fc3e9010fe9fc6e687ff2320d",
		verify.ObWorkConservSeq: "f00e16aa6fd4c1ce15e0f8d42212fdbce41b6919a4c2de66d56a3f8408e9c5ce",
		verify.ObNoTaskLost:     "372617a2a0bf0cefb56ad793fb37727cad23c1d8785a2ef50e120d20a9acfad1",
	} {
		if got := obligationKey(forms, u, id, 0); got != want {
			t.Errorf("%s: key %s, pinned %s", id, got, want)
		}
	}

	s := MustNew(Config{})
	defer s.Close()
	sub, err := s.resolve(Request{Policy: "delta2"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "21d4a668ef0b47854635c25e4158be141030ffaf975e35f2e43acaaa18dce035"; sub.jobKey != want {
		t.Errorf("job key %s, pinned %s", sub.jobKey, want)
	}
	// A submission's keys are obligationKey's, cell for cell.
	for i, id := range sub.obligations {
		if want := obligationKey(forms, u, id, 0); sub.keys[i] != want {
			t.Errorf("%s: submission key %s, obligationKey %s", id, sub.keys[i], want)
		}
	}
}

// Resolving a submission's content keys allocates each key's one string
// and nothing per field: the fields are laid out in one buffer and
// hashed on the stack. What else keysFor allocates is per call — the
// key and obligation slices, the universe's canonical form — or the
// copy verify.ObligationDeps documents, one per key.
func TestObligationKeysAllocateOneStringEach(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what escapes to the heap")
	}
	s := MustNew(Config{})
	defer s.Close()
	forms := delta2Forms(t)
	req := Request{Policy: "delta2"}
	var buf [1024]byte
	n := len(verify.AllObligations())
	canon := testing.AllocsPerRun(100, func() { _ = req.universe().Canonical() })
	got := testing.AllocsPerRun(100, func() {
		if _, _, err := s.keysFor(req, forms, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	// Per key: its string and its ObligationDeps copy. Per call: the two
	// slices and the canonical universe.
	limit := float64(2*n+2) + canon
	t.Logf("keysFor on %d obligations: %.0f objects (limit %.0f, of which %.0f the canonical universe)", n, got, limit, canon)
	if got > limit {
		t.Errorf("keysFor on %d obligations allocates %.0f objects, want at most %.0f", n, got, limit)
	}
}
