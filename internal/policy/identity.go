package policy

import (
	"fmt"

	"repro/internal/dsl"
)

// ComponentForms returns the spec's per-component content identity for
// verification caching, keyed by the component names of sched.Policy
// ("load", "filter", "choose", "steal", "rescue" — the vocabulary of
// verify.ObligationDeps).
//
// Specs carrying a DSL equivalence hash like a direct DSL submission:
// each component's identity is the canonical compiled form of the
// corresponding clause (dsl.ComponentForm), so `-policy delta2` and a
// POST of Listing 1's source coalesce onto the same cache entries, and
// two registered specs that differ only in one clause (delta2 vs
// delta2-gen, which differ only in choose) share the entries for the
// obligations that never consult that clause.
//
// Plain Go specs get the opaque identity "go:<name>" for every
// component. That is sound only within one process: a Go implementation
// cannot change while the process lives, but a rebuilt binary may carry
// a different one under the same name. So schedverifyd memoizes these
// cells in memory and never writes them to its durable store. The
// identity is also all-or-nothing: without a clause-level description
// there is nothing finer to hash.
//
// A registered DSL source's forms are computed once, by Register, and the
// one map is returned to every caller: it must not be modified.
func (s Spec) ComponentForms() (map[string]string, error) {
	if s.DSL == "" {
		opaque := "go:" + s.Name
		forms := make(map[string]string, 5)
		for _, comp := range []string{"load", "filter", "choose", "steal", "rescue"} {
			forms[comp] = opaque
		}
		return forms, nil
	}
	registryMu.RLock()
	forms, ok := registeredForms[s.DSL]
	registryMu.RUnlock()
	if ok {
		return forms, nil
	}
	ast, err := dsl.Parse(s.DSL)
	if err != nil {
		return nil, fmt.Errorf("policy: spec %q carries broken DSL: %w", s.Name, err)
	}
	return dsl.ComponentForms(ast), nil
}
