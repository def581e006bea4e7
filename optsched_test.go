package optsched

import (
	"context"
	"go/doc"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// The facade tests double as the library's quickstart documentation:
// each exercises the README's advertised three-line workflows.

func TestFacadeModelRoundTrip(t *testing.T) {
	// The §4.3 machine [0 1 2] balances to work conservation in one move.
	c, err := New(WithPolicy("delta2"), WithSequentialRounds())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), Scenario{Name: "paper", Cores: 3,
		Batches: []Batch{{Core: 1, Tasks: 1}, {Core: 2, Tasks: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steals != 1 {
		t.Fatalf("no one-steal convergence: %v", res)
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
	m := sched.MachineFromLoads(0, 3)
	if rr := sched.SequentialRound(c.NewPolicy(), m); rr.Successes() == 0 {
		t.Fatalf("DSL policy did not steal: %v", m.Loads())
	}
}

func TestFacadeTopologyAndPolicies(t *testing.T) {
	specs := PolicySpecs()
	if len(specs) < 6 {
		t.Errorf("PolicySpecs = %v", specs)
	}
	// Every registered policy builds a cluster, numa-aware over the
	// registry's default topology.
	for _, spec := range specs {
		c, err := New(WithPolicy(spec.Name))
		if err != nil {
			t.Errorf("New(WithPolicy(%q)): %v", spec.Name, err)
			continue
		}
		if c.NewPolicy().Name() == "" {
			t.Errorf("WithPolicy(%q) built a policy with an empty name", spec.Name)
		}
	}
}

// TestEveryExampleChecksItsOutput fails on an Example function of the
// root package without a non-empty "// Output:" block: go test compiles
// such an example but never runs it, so what it prints is unchecked.
func TestEveryExampleChecksItsOutput(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	examples := 0
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range doc.Examples(f) {
			examples++
			if strings.TrimSpace(ex.Output) == "" {
				t.Errorf("%s: Example%s has no // Output: block to check", name, ex.Name)
			}
		}
	}
	if examples == 0 {
		t.Error("no Example functions found")
	}
}
