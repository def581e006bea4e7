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
	const src = `policy quick { filter = stealee.load - thief.load >= 2 }`
	c, err := New(WithDSL(src))
	if err != nil {
		t.Fatal(err)
	}
	m := MachineFromLoads(0, 3)
	if rr := SequentialRound(c.NewPolicy(), m); rr.Successes() == 0 {
		t.Fatalf("DSL policy did not steal: %v", m.Loads())
	}
	ast, err := ParsePolicy(src)
	if err != nil {
		t.Fatal(err)
	}
	code := GeneratePolicyGo(ast, "mypolicies")
	if !strings.Contains(code, "func (p *Quick) CanSteal") {
		t.Errorf("generated code unexpected:\n%s", code)
	}
}

func TestFacadeTopologyAndPolicies(t *testing.T) {
	top := NUMATopology(2, 2)
	if top.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", top.NumNodes())
	}
	numa, err := New(WithPolicy("numa-aware"), WithTopology(top))
	if err != nil {
		t.Fatal(err)
	}
	if numa.NewPolicy().Name() == "" {
		t.Error("empty policy name")
	}
	specs := PolicySpecs()
	if len(specs) < 6 {
		t.Errorf("PolicySpecs = %v", specs)
	}
	for _, spec := range specs {
		if _, err := NewPolicy(spec.Name); err != nil {
			t.Errorf("NewPolicy(%q): %v", spec.Name, err)
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
