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
// durable memo — an upgraded daemon would miss on all of it. The one
// sanctioned change is a verify.Version bump, a key field: it moves every
// key on purpose, and the store's version check discards the old
// snapshot and WAL (TestVerifierVersionMismatchDiscardsWAL). Any other
// key change needs a migration, not a regenerated pin.
func TestObligationKeysArePinned(t *testing.T) {
	forms := delta2Forms(t)
	u := verify.DefaultUniverse()
	for id, want := range map[verify.ObligationID]string{
		verify.ObLemma1:         "7a99775b5d8b6367ba26416f11bd0dec5f01c97bda01582c1500e2af80be93e7",
		verify.ObWorkConservSeq: "8611977546278355a0f225f6e6f3044b8630bc2bcfbef8ecce8d0a36a65c25b9",
		verify.ObNoTaskLost:     "f809e4434d7b4a3f83e24f49950950126a0d37785d9940542314d3ee481d698e",
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
	if want := "c553f9cef2574474d6c17ca7932a880784a786f687c01ad29ba0bac095d5f434"; sub.jobKey != want {
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
