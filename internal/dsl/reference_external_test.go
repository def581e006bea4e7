package dsl_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// TestCompiledMatchesReference holds Compile's closures to the reference
// tree walk on every registered DSL spec, every testdata policy and a
// generated table that reaches every attribute of both roots under every
// operator, over every machine of the default universe and of a
// weighted, grouped 4-core universe, and over every probe pair Analyze
// decides on.
func TestCompiledMatchesReference(t *testing.T) {
	var sources []string
	for _, spec := range policy.Specs() {
		if spec.DSL != "" {
			sources = append(sources, spec.DSL)
		}
	}
	files, err := filepath.Glob("testdata/*.pol")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dsl.Parse(string(src)); err != nil {
			continue // the linter's parse-error fixture
		}
		sources = append(sources, string(src))
	}
	sources = append(sources, operatorTable()...)

	var machines []*sched.Machine
	for _, u := range []statespace.Universe{
		verify.DefaultUniverse(),
		{Cores: 4, MaxPerCore: 2, MaxTotal: 4, Weights: []int64{512, 2048}, Groups: []int{0, 0, 1, 1}},
	} {
		u.Enumerate(func(m *sched.Machine) bool {
			machines = append(machines, m.Clone())
			return true
		})
	}

	for _, src := range sources {
		ast, err := dsl.Parse(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		compiled, ref := dsl.Compile(ast), dsl.ReferencePolicy(ast)
		for _, m := range machines {
			if err := dsl.Agree(compiled, ref, m.Cores); err != nil {
				t.Fatalf("%s on %v: %v", ast, m, err)
			}
		}
		if err := dsl.AgreeOnProbes(compiled, ref); err != nil {
			t.Fatalf("%s on the probe pairs: %v", ast, err)
		}
	}
}

// operatorTable generates policies whose clauses, taken together, apply
// every operator to every attribute of both roots — against the other
// root's attributes, whose zeros make x/0 and x%0 occur, and against
// literals — plus unary minus, negation, && and || with each side
// constant, and + over every pair of one root's attributes, the shape
// the ready.size + current.size fold matches. The load clauses rotate
// through folded and unfolded forms, so `load` on either root reads
// each of them, and the choosers rotate through every heuristic.
func operatorTable() []string {
	roots := [2]string{"self", "stealee"}
	attrs := []string{"load", "nthreads", "ready.size", "current.size", "weight.sum", "id", "group", "node"}
	var ints, bools []string
	for ri, root := range roots {
		other := roots[1-ri]
		for ai, attr := range attrs {
			x := root + "." + attr
			y := other + "." + attrs[(ai+3)%len(attrs)]
			for _, op := range []string{"+", "-", "*", "/", "%"} {
				ints = append(ints, fmt.Sprintf("%s %s %s", x, op, y), fmt.Sprintf("%s %s %d", x, op, ai%3))
			}
			ints = append(ints, "-"+x, fmt.Sprintf("-(%s - %s) %% 3", x, y))
			for _, op := range []string{"==", "!=", "<", "<=", ">", ">="} {
				bools = append(bools, fmt.Sprintf("%s %s %s", x, op, y),
					fmt.Sprintf("%s - %s.%s %s %d", x, other, attr, op, ai%3),
					fmt.Sprintf("%d %s %s", ai%3, op, x))
			}
			cmp := fmt.Sprintf("%s > %s", x, y)
			bools = append(bools, "!("+cmp+")",
				cmp+" && true", "true && "+cmp, cmp+" && false", "false && "+cmp,
				cmp+" || true", "true || "+cmp, cmp+" || false", "false || "+cmp,
				fmt.Sprintf("%s && %s <= 1 || !(%s == %s)", cmp, x, y, x))
			for _, attr2 := range attrs {
				ints = append(ints, x+" + "+root+"."+attr2)
			}
		}
	}
	loads := []string{
		"self.ready.size + self.current.size",
		"self.current.size + self.ready.size",
		"ready.size * 2 + current.size",
		"self.weight.sum / 512 - self.id",
		"nthreads % 2 + group * 7 - node",
	}
	choosers := []string{"first", "max_load", "min_load", "random(5)"}
	n := max(len(ints), len(bools))
	table := make([]string, n)
	for i := range table {
		table[i] = fmt.Sprintf("policy t%d { load = %s filter = %s steal = %s choose = %s rescue = %s }",
			i, loads[i%len(loads)], bools[i%len(bools)], ints[i%len(ints)],
			choosers[i%len(choosers)], choosers[(i/len(choosers))%len(choosers)])
	}
	return table
}
