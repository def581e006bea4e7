package dsl

import (
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestGeneratedCodeIsValidGo runs every codegen path through the stdlib
// Go parser: the generated backend must always be syntactically valid.
func TestGeneratedCodeIsValidGo(t *testing.T) {
	sources := []string{
		listing1,
		buggyGreedy,
		`policy w { load = self.weight.sum filter = stealee.load - thief.load >= 2048 choose = min_load }`,
		`policy r { filter = stealee.nthreads >= 2 && !(thief.id == 0) || stealee.group != thief.group choose = random(5) }`,
		`policy m { filter = stealee.load % 2 == 0 steal = stealee.load / 2 }`,
	}
	fset := gotoken.NewFileSet()
	for _, src := range sources {
		ast, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src[:20], err)
		}
		code := Generate(ast, "generated")
		if _, err := goparser.ParseFile(fset, ast.Name+".go", code, 0); err != nil {
			t.Errorf("policy %s: generated code does not parse: %v\n%s", ast.Name, err, code)
		}
	}
	if _, err := goparser.ParseFile(fset, "support.go", GenerateSupport("generated"), 0); err != nil {
		t.Errorf("support code does not parse: %v", err)
	}
}

// TestGeneratedDelta2Golden pins the committed generated policy
// (internal/policy/gen_delta2.go) to the current code generator and the
// checked-in DSL source: regenerating must be a no-op. If this fails,
// re-run:
//
//	go run ./cmd/scheddsl -in internal/dsl/testdata/delta2.pol \
//	    -gen internal/policy/gen_delta2.go -pkg policy
func TestGeneratedDelta2Golden(t *testing.T) {
	src, err := os.ReadFile("testdata/delta2.pol")
	if err != nil {
		t.Fatal(err)
	}
	ast, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../policy/gen_delta2.go")
	if err != nil {
		t.Fatal(err)
	}
	got := Generate(ast, "policy")
	if normalize(got) != normalize(string(want)) {
		t.Errorf("gen_delta2.go is stale; regenerate with scheddsl.\n--- generated now ---\n%s", got)
	}
	wantSupport, err := os.ReadFile("../policy/gen_delta2_support.go")
	if err != nil {
		t.Fatal(err)
	}
	if normalize(GenerateSupport("policy")) != normalize(string(wantSupport)) {
		t.Error("gen_delta2_support.go is stale; regenerate with scheddsl")
	}
}

// normalize strips trailing whitespace per line (gofmt may have touched
// the committed file).
func normalize(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " \t")
	}
	return strings.TrimSpace(strings.Join(lines, "\n"))
}

// TestInterpreterMatchesGeneratorSemantics drives the interpreted policy
// and a hand-translation of its generated code over random states and
// checks decision equality — the two-backend equivalence the paper's
// pipeline relies on.
func TestInterpreterMatchesGeneratorSemantics(t *testing.T) {
	src := `policy eq {
	    load   = self.ready.size * 2 + self.current.size
	    filter = stealee.load - thief.load >= 3 && stealee.ready.size >= 1
	    steal  = 1
	}`
	interp, _, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// The generated code for this policy, hand-checked: load(c) =
	// len(Queued())*2 + current; filter as written.
	genLoad := func(c *sched.Core) int64 {
		cur := int64(0)
		if c.Current != nil {
			cur = 1
		}
		return int64(len(c.Queued()))*2 + cur
	}
	genFilter := func(thief, stealee *sched.Core) bool {
		return genLoad(stealee)-genLoad(thief) >= 3 && len(stealee.Queued()) >= 1
	}
	for a := 0; a <= 4; a++ {
		for b := 0; b <= 4; b++ {
			m := sched.MachineFromLoads(a, b)
			thief, stealee := m.Core(0), m.Core(1)
			if interp.CanSteal(thief, stealee) != genFilter(thief, stealee) {
				t.Errorf("loads (%d,%d): backends disagree", a, b)
			}
			if interp.Load(stealee) != genLoad(stealee) {
				t.Errorf("loads (%d,%d): load metric disagrees", a, b)
			}
		}
	}
}
