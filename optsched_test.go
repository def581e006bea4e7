package optsched

import (
	"context"
	"strings"
	"testing"
)

// The facade tests double as the library's quickstart documentation:
// each exercises the README's advertised three-line workflows.

func TestFacadeModelRoundTrip(t *testing.T) {
	m := MachineFromLoads(0, 1, 2)
	p := NewDelta2()
	for i := 0; i < 4 && !m.WorkConserved(); i++ {
		SequentialRound(p, m)
	}
	if !m.WorkConserved() {
		t.Fatalf("no convergence: %v", m.Loads())
	}
}

func TestFacadeVerify(t *testing.T) {
	for name, want := range map[string]bool{"delta2": true, "greedy-buggy": false} {
		c, err := New(WithPolicy(name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Verify(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed() != want {
			t.Errorf("%s verification passed=%v, want %v:\n%s", name, rep.Passed(), want, rep)
		}
	}
}

func TestFacadeDSL(t *testing.T) {
	p, ast, err := CompilePolicy(`policy quick { filter = stealee.load - thief.load >= 2 }`)
	if err != nil {
		t.Fatal(err)
	}
	m := MachineFromLoads(0, 3)
	att := Select(p, m, 0)
	Steal(p, m, &att)
	if !att.Succeeded() {
		t.Fatalf("DSL policy did not steal: %+v", att)
	}
	code := GeneratePolicyGo(ast, "mypolicies")
	if !strings.Contains(code, "func (p *Quick) CanSteal") {
		t.Errorf("generated code unexpected:\n%s", code)
	}
}

func TestFacadeSimulator(t *testing.T) {
	s := NewSimulator(SimConfig{Cores: 2, Policy: NewDelta2(), Seed: 5})
	// The facade exposes the simulator; behaviors come from
	// internal/sim via the examples. Here just check the empty run.
	st := s.Run(10_000)
	if st.Completed != 0 || st.Duration != 10_000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFacadeTopologyAndPolicies(t *testing.T) {
	top := NUMATopology(2, 2)
	if top.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", top.NumNodes())
	}
	numa := NewNUMAAware(top)
	if numa.Name() == "" {
		t.Error("empty policy name")
	}
	names := PolicyNames()
	if len(names) < 6 {
		t.Errorf("PolicyNames = %v", names)
	}
	for _, n := range names {
		if _, err := NewPolicy(n); err != nil {
			t.Errorf("NewPolicy(%q): %v", n, err)
		}
	}
}

func TestFacadePotential(t *testing.T) {
	m := MachineFromLoads(0, 4)
	p := NewDelta2()
	before := PairwiseImbalance(p, m)
	SequentialRound(p, m)
	if after := PairwiseImbalance(p, m); after >= before {
		t.Errorf("potential %d -> %d", before, after)
	}
}
