package policy

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dsl"
	"repro/internal/sched"
	"repro/internal/statespace"
)

// Every spec that asserts a DSL equivalence must actually be
// behaviorally identical to its DSL's compiled form — same load, same
// filter decisions, same choice, same steal sizing, same rescue — over
// every state of the four universes the verifier's golden reports pin
// (faults, a fourth core, weights, groups). One instance of each side
// is stepped in lockstep across the whole enumeration, so a stateful
// chooser's stream is compared call for call, not restarted per state.
// This is what licenses schedverifyd to share cache entries between the
// Go spec and equivalent DSL submissions.
func TestSpecDSLEquivalence(t *testing.T) {
	universes := []statespace.Universe{
		{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1},
		{Cores: 4, MaxPerCore: 2, MaxTotal: 3, IncludeUnscheduled: true},
		{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Weights: []int64{1, 3}},
		{Cores: 4, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}},
	}
	for _, spec := range Specs() {
		if spec.DSL == "" {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ast, err := dsl.Parse(spec.DSL)
			if err != nil {
				t.Fatalf("spec %q carries broken DSL: %v", spec.Name, err)
			}
			for _, u := range universes {
				goP, dslP := spec.New(nil), dsl.Compile(ast)
				states := 0
				u.Enumerate(func(m *sched.Machine) bool {
					states++
					if err := lockstep(goP, dslP, m); err != nil {
						t.Fatalf("%s, state %v: %v", u, m.Loads(), err)
					}
					return true
				})
				t.Logf("%s: %d states equal", u, states)
			}
		})
	}
}

// lockstep puts the same questions to goP and dslP on m, in the same
// order, and reports the first answer on which they differ.
func lockstep(goP, dslP sched.Policy, m *sched.Machine) error {
	for _, c := range m.Cores {
		if gl, dl := goP.Load(c), dslP.Load(c); gl != dl {
			return fmt.Errorf("Load(c%d) Go=%d DSL=%d", c.ID, gl, dl)
		}
	}
	var candidates []*sched.Core
	for _, thief := range m.Cores {
		candidates = candidates[:0]
		for _, stealee := range m.Cores {
			if stealee.ID == thief.ID {
				continue
			}
			gc, dc := goP.CanSteal(thief, stealee), dslP.CanSteal(thief, stealee)
			if gc != dc {
				return fmt.Errorf("CanSteal(c%d,c%d) Go=%v DSL=%v", thief.ID, stealee.ID, gc, dc)
			}
			if gc {
				candidates = append(candidates, stealee)
				if gn, dn := goP.StealCount(thief, stealee), dslP.StealCount(thief, stealee); gn != dn {
					return fmt.Errorf("StealCount(c%d,c%d) Go=%d DSL=%d", thief.ID, stealee.ID, gn, dn)
				}
			}
		}
		if len(candidates) > 0 {
			if gch, dch := goP.Choose(thief, candidates), dslP.Choose(thief, candidates); gch.ID != dch.ID {
				return fmt.Errorf("Choose(c%d) Go=c%d DSL=c%d", thief.ID, gch.ID, dch.ID)
			}
		}
	}
	for _, c := range m.Cores {
		if gp, dp := sched.Place(goP, m, c.ID), sched.Place(dslP, m, c.ID); gp.ID != dp.ID {
			return fmt.Errorf("Place(c%d) Go=c%d DSL=c%d", c.ID, gp.ID, dp.ID)
		}
	}
	return nil
}

// Plain Go specs hash opaquely by name; DSL-backed specs hash by
// compiled clause. delta2 and delta2-gen differ only in choose.
func TestSpecComponentForms(t *testing.T) {
	d2, _ := Lookup("delta2")
	gen, _ := Lookup("delta2-gen")
	f1, err := d2.ComponentForms()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := gen.ComponentForms()
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"load", "filter", "steal"} {
		if f1[comp] != f2[comp] {
			t.Errorf("delta2 and delta2-gen disagree on %s:\n %q\n %q", comp, f1[comp], f2[comp])
		}
	}
	if f1["choose"] == f2["choose"] {
		t.Error("delta2 (first) and delta2-gen (max_load) share a choose form")
	}

	h, _ := Lookup("hierarchical")
	forms, err := h.ComponentForms()
	if err != nil {
		t.Fatal(err)
	}
	for comp, form := range forms {
		if form != "go:hierarchical" {
			t.Errorf("plain Go spec component %s = %q, want opaque name identity", comp, form)
		}
	}

	broken := Spec{Name: "broken", DSL: "policy x {"}
	if _, err := broken.ComponentForms(); err == nil {
		t.Error("broken DSL accepted")
	}
}

// Every registered DSL source lints clean, except null, whose filter
// never fires by design: a sloppy port — a dead load clause, a shadowed
// conjunct — fails here.
func TestRegisteredDSLLintsClean(t *testing.T) {
	for _, spec := range Specs() {
		if spec.DSL == "" {
			continue
		}
		ast, err := dsl.Parse(spec.DSL)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		var codes []string
		for _, d := range dsl.Analyze(ast, dsl.AnalyzeOptions{MaxFaults: 0}) {
			codes = append(codes, d.Code)
		}
		var want []string
		if spec.Name == "null" {
			want = []string{"filter-false"}
		}
		if !reflect.DeepEqual(codes, want) {
			t.Errorf("%s: dsl.Analyze reports %v, want %v", spec.Name, codes, want)
		}
	}
}
