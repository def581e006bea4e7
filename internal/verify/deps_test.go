package verify

import "testing"

// TestObligationDepsComplete pins what the table's layout cannot: each
// row declares at least one component, listed as a subsequence of the
// canonical CompLoad … CompRescue order — the order the memoizer hashes
// in. That every obligation has exactly one row holds by construction;
// whether the rows match what the checks actually call is the depsaudit
// analyzer's job.
func TestObligationDepsComplete(t *testing.T) {
	order := []PolicyComponent{CompLoad, CompFilter, CompChoose, CompSteal, CompRescue}
	rank := map[PolicyComponent]int{}
	for i, c := range order {
		rank[c] = i
	}
	for _, ob := range obligations {
		if len(ob.deps) == 0 {
			t.Errorf("obligation %q declares no components: every checker consults the policy", ob.id)
		}
		prev := -1
		for _, c := range ob.deps {
			r, known := rank[c]
			if !known {
				t.Errorf("row %q names unknown component %q", ob.id, c)
				continue
			}
			if r <= prev {
				t.Errorf("row %q lists components out of canonical order: %v (want a subsequence of %v)", ob.id, ob.deps, order)
				break
			}
			prev = r
		}
	}
}

// TestObligationDepsAccessors checks the exported accessors agree with
// the table, and that an append to ObligationDeps' read-only result
// leaves the table unchanged.
func TestObligationDepsAccessors(t *testing.T) {
	for i, id := range AllObligations() {
		ob := &obligations[i]
		if id != ob.id {
			t.Fatalf("AllObligations()[%d] = %q, want the table's %q", i, id, ob.id)
		}
		deps := ObligationDeps(id)
		if len(deps) != len(ob.deps) {
			t.Fatalf("ObligationDeps(%q) length mismatch", id)
		}
		grown := append(deps, "appended")
		if &grown[0] == &ob.deps[0] || len(ob.deps) != len(deps) || cap(deps) != len(deps) {
			t.Fatalf("ObligationDeps(%q): an append to the result can reach the table", id)
		}
		if ReadsMaxRounds(id) != ob.rounds {
			t.Errorf("ReadsMaxRounds(%q) = %v, want the row's %v", id, !ob.rounds, ob.rounds)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ObligationDeps on an unknown obligation did not panic")
		}
	}()
	ObligationDeps("no-such-obligation")
}
