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
// key on purpose, and the store's version check discards the old WAL
// (TestVerifierVersionMismatchDiscardsWAL). Any other
// key change needs a migration, not a regenerated pin.
func TestObligationKeysArePinned(t *testing.T) {
	forms := delta2Forms(t)
	u := verify.DefaultUniverse()
	for id, want := range map[verify.ObligationID]string{
		verify.ObLemma1:         "ded683a33457b3ce90f5135b6fd245e65ec7db40768271a8936ccc3527f1a00a",
		verify.ObWorkConservSeq: "ad569084963c465abbcc83acfe9a088219ec6c5da1a99c93e12a9a80796b8818",
		verify.ObNoTaskLost:     "985a9e255e3cdcc47c0cc21c8276d834d14a685edf74b048d1383c22261a57b0",
	} {
		if got := obligationKey(forms, u, id, 0).String(); got != want {
			t.Errorf("%s: key %s, pinned %s", id, got, want)
		}
	}

	s := MustNew(Config{})
	defer s.Close()
	sub, err := s.resolve(Request{Policy: "delta2"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "b92ce44746f14c8a2a00f8c49dc2845feb9228bc5f3858d2d1653f850e058e1a"; sub.jobKey.String() != want {
		t.Errorf("job key %s, pinned %s", sub.jobKey, want)
	}
	// A submission's keys are obligationKey's, cell for cell.
	for i, id := range sub.obligations {
		if want := obligationKey(forms, u, id, 0); sub.keys[i] != want {
			t.Errorf("%s: submission key %s, obligationKey %s", id, sub.keys[i], want)
		}
	}
}

// Resolving a submission's content keys allocates nothing per key: the
// fields are laid out in one buffer and hashed on the stack into the key
// slice, and verify.ObligationDeps hands out its table's own row. What
// keysFor allocates is per call — the key and obligation slices and the
// universe's canonical form.
func TestObligationKeysAllocateNothingPerKey(t *testing.T) {
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
	// Per call: the two slices and the canonical universe. Each key cost
	// one more, its hex string, while the memo was keyed on hex.
	limit := 2 + canon
	t.Logf("keysFor on %d obligations: %.0f objects (limit %.0f, of which %.0f the canonical universe)", n, got, limit, canon)
	if got > limit {
		t.Errorf("keysFor on %d obligations allocates %.0f objects, want at most %.0f", n, got, limit)
	}
}
