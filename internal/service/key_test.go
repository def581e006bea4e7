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
		verify.ObLemma1:         "c3fd8f4582ab43f2d8977738b35a8b56cd64621d82d5419578eb0467c8b59fc3",
		verify.ObWorkConservSeq: "8ec2791b6c262b78e351564a456db269dc6a5028f5bbceb7700df4e5d9ef7285",
		verify.ObNoTaskLost:     "170ba4d91cf927020893aa607399f814943697c50214eb087b3838950848b06a",
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
	if want := "25e42a3c31d6a8e83e0f32e8d97a37a6949a319a5eb88606d5c13b5474254fa0"; sub.jobKey.String() != want {
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
