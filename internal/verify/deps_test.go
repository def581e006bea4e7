package verify

import "testing"

// TestObligationDepsComplete pins the table's shape by reflection over
// the registered obligations: every obligation has a row, no row is
// stale, and each row lists its components as a subsequence of the
// canonical CompLoad … CompRescue order — the order the memoizer hashes in.
// The semantic direction (do the rows match what the checkers actually
// call?) is the depsaudit analyzer's job; this test guards the
// bookkeeping the analyzer itself relies on.
func TestObligationDepsComplete(t *testing.T) {
	registered := map[ObligationID]bool{}
	for _, id := range AllObligations() {
		registered[id] = true
		deps, ok := obligationDeps[id]
		if !ok {
			t.Errorf("obligation %q has no obligationDeps row", id)
			continue
		}
		if len(deps) == 0 {
			t.Errorf("obligation %q declares no components: every checker consults the policy", id)
		}
	}
	for id := range obligationDeps {
		if !registered[id] {
			t.Errorf("obligationDeps row %q matches no registered obligation", id)
		}
	}

	order := []PolicyComponent{CompLoad, CompFilter, CompChoose, CompSteal, CompRescue}
	rank := map[PolicyComponent]int{}
	for i, c := range order {
		rank[c] = i
	}
	for id, deps := range obligationDeps {
		prev := -1
		for _, c := range deps {
			r, known := rank[c]
			if !known {
				t.Errorf("row %q names unknown component %q", id, c)
				continue
			}
			if r <= prev {
				t.Errorf("row %q lists components out of canonical order: %v (want a subsequence of %v)", id, deps, order)
				break
			}
			prev = r
		}
	}
}

// TestObligationDepsAccessors checks the exported accessors agree with
// the table and defend their copies.
func TestObligationDepsAccessors(t *testing.T) {
	for _, id := range AllObligations() {
		deps := ObligationDeps(id)
		if len(deps) != len(obligationDeps[id]) {
			t.Fatalf("ObligationDeps(%q) length mismatch", id)
		}
		if len(deps) > 0 {
			deps[0] = "mutated"
			if obligationDeps[id][0] == "mutated" {
				t.Fatalf("ObligationDeps(%q) returns the table's own slice", id)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ObligationDeps on an unknown obligation did not panic")
		}
	}()
	ObligationDeps("no-such-obligation")
}
