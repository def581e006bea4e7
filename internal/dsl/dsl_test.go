package dsl

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// machineFromSpec builds a fresh machine from explicit per-core specs.
func machineFromSpec(specs ...sched.CoreSpec) *sched.Machine {
	m := new(sched.Machine)
	m.SetFromSpec(specs)
	return m
}

// listing1 is the paper's Listing 1 transcribed into the DSL.
const listing1 = `
# The simple load balancer of Listing 1.
policy delta2 {
    load   = self.ready.size + self.current.size
    filter = stealee.load() - self.load() >= 2
    steal  = 1
    choose = max_load
}
`

const buggyGreedy = `
policy greedy {
    filter = stealee.load >= 2   # the §4.3 counterexample
    choose = max_load
}
`

func TestParseListing1(t *testing.T) {
	p, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "delta2" {
		t.Errorf("Name = %q", p.Name)
	}
	if p.Choose.Name != "max_load" {
		t.Errorf("Choose = %+v", p.Choose)
	}
	if got := p.String(); !strings.Contains(got, "filter = ((stealee.load - self.load) >= 2)") {
		t.Errorf("round-trip:\n%s", got)
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse(`policy d { filter = stealee.nthreads - thief.nthreads >= 2 }`)
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: load = nthreads, steal = 1, choose = first.
	if p.Load == nil || p.Steal == nil || p.Choose.Name != "first" {
		t.Errorf("defaults not applied: %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantFrag string
	}{
		{"no filter", `policy p { load = nthreads }`, "no filter"},
		{"bad clause", `policy p { filtr = true }`, "unknown clause"},
		{"dup clause", `policy p { filter = true filter = true }`, "duplicate"},
		{"trailing", `policy p { filter = true } x`, "trailing"},
		{"bad chooser", `policy p { filter = true choose = coolest }`, "chooser"},
		{"type mismatch filter", `policy p { filter = 1 + 2 }`, "type"},
		{"type mismatch steal", `policy p { filter = true steal = true }`, "type"},
		{"bool arith", `policy p { filter = (1 < 2) + 3 >= 1 }`, "needs ints"},
		{"unknown attr", `policy p { filter = stealee.magic >= 2 }`, "unknown core attribute"},
		{"bare path in filter", `policy p { filter = nthreads >= 2 }`, "must start with"},
		{"stealee in load", `policy p { load = stealee.nthreads filter = true }`, "not available"},
		{"thief in load", `policy p { load = thief.nthreads filter = true }`, "not available"},
		{"load recursion", `policy p { load = load filter = true }`, "cannot reference"},
		{"lex error", "policy p { filter = @ }", "unexpected character"},
		{"no name", `policy { filter = true }`, "policy name"},
		{"not a policy", `module p {}`, "expected \"policy\""},
		{"unclosed paren", `policy p { filter = (true }`, "expected \")\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.wantFrag)
			}
			if !strings.Contains(err.Error(), tc.wantFrag) {
				t.Errorf("error = %q, want fragment %q", err, tc.wantFrag)
			}
		})
	}
}

func TestCompiledListing1MatchesNative(t *testing.T) {
	pol, _, err := CompileSource(listing1)
	if err != nil {
		t.Fatal(err)
	}
	m := sched.MachineFromLoads(0, 1, 2, 3)
	for ti := range m.Cores {
		for si := range m.Cores {
			if ti == si {
				continue
			}
			want := int64(m.Core(si).NThreads())-int64(m.Core(ti).NThreads()) >= 2
			if got := pol.CanSteal(m.Core(ti), m.Core(si)); got != want {
				t.Errorf("CanSteal(c%d, c%d) = %v, want %v", ti, si, got, want)
			}
		}
	}
	if pol.Name() != "delta2" {
		t.Errorf("Name = %q", pol.Name())
	}
}

func TestCompiledFilterAllocatesNothing(t *testing.T) {
	// The verifier evaluates the filter per core pair per state: the load
	// evaluator behind `x.load()` is built once per Compile, not per call.
	pol, _, err := CompileSource(listing1)
	if err != nil {
		t.Fatal(err)
	}
	m := sched.MachineFromLoads(0, 1, 2, 3)
	thief, stealee := m.Core(0), m.Core(3)
	if n := testing.AllocsPerRun(100, func() {
		pol.CanSteal(thief, stealee)
		pol.StealCount(thief, stealee)
		pol.Load(stealee)
	}); n != 0 {
		t.Errorf("filter + steal count + load of a compiled policy allocate %v times", n)
	}
}

func TestCompiledPolicyBalances(t *testing.T) {
	pol, _, err := CompileSource(listing1)
	if err != nil {
		t.Fatal(err)
	}
	m := sched.MachineFromLoads(0, 6, 0, 2)
	for i := 0; i < 16 && !m.WorkConserved(); i++ {
		sched.SequentialRound(pol, m)
	}
	if !m.WorkConserved() {
		t.Errorf("DSL policy did not converge: %v", m.Loads())
	}
}

func TestDSLThroughVerifier(t *testing.T) {
	// The paper's pipeline: one DSL source, execution + verification.
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 4, IncludeUnscheduled: true}
	factory := func() sched.Policy {
		p, _, err := CompileSource(listing1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Sequential: the factories call t.Fatal, which must stay on the test
	// goroutine.
	cfg := verify.Config{Universe: u, Sequential: true}
	rep, _ := verify.PolicyContext(context.Background(), "dsl-delta2", factory, cfg)
	if !rep.Passed() {
		t.Fatalf("DSL delta2 failed verification:\n%s", rep)
	}

	buggy := func() sched.Policy {
		p, _, err := CompileSource(buggyGreedy)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	repBad, _ := verify.PolicyContext(context.Background(), "dsl-greedy", buggy, cfg)
	if repBad.Passed() {
		t.Fatal("DSL greedy policy passed verification — livelock missed")
	}
	refuted := false
	for _, res := range repBad.Results {
		if res.ID == verify.ObWorkConservConc {
			refuted = !res.Passed
		}
	}
	if !refuted {
		t.Error("concurrent WC should have failed for the greedy DSL policy")
	}
}

func TestWeightedDSLPolicy(t *testing.T) {
	src := `
policy weighted_gap {
    load   = self.weight.sum
    filter = stealee.load - thief.load >= 2048 && stealee.ready.size >= 1
    steal  = 1
    choose = max_load
}
`
	pol, ast, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if ast.Choose.Name != "max_load" {
		t.Errorf("chooser = %q", ast.Choose.Name)
	}
	m := machineFromSpec(
		sched.CoreSpec{},
		sched.CoreSpec{Running: 1024, Queued: []int64{1024}},
	)
	if !pol.CanSteal(m.Core(0), m.Core(1)) {
		t.Error("weighted DSL filter rejected a 2048 gap")
	}
}

func TestChoosers(t *testing.T) {
	m := sched.MachineFromLoads(0, 2, 5, 3)
	cands := []*sched.Core{m.Core(1), m.Core(2), m.Core(3)}
	mk := func(choose string) sched.Policy {
		p, _, err := CompileSource(`policy p { filter = stealee.load >= 2 choose = ` + choose + ` }`)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if got := mk("first").Choose(m.Core(0), cands); got.ID != 1 {
		t.Errorf("first chose c%d", got.ID)
	}
	if got := mk("max_load").Choose(m.Core(0), cands); got.ID != 2 {
		t.Errorf("max_load chose c%d", got.ID)
	}
	if got := mk("min_load").Choose(m.Core(0), cands); got.ID != 1 {
		t.Errorf("min_load chose c%d", got.ID)
	}
	rand := mk("random(7)")
	for i := 0; i < 20; i++ {
		got := rand.Choose(m.Core(0), cands)
		if got.ID < 1 || got.ID > 3 {
			t.Fatalf("random chose c%d", got.ID)
		}
	}
}

func TestDivisionTotalSemantics(t *testing.T) {
	// x/0 and x%0 evaluate to 0 (total semantics), not panic.
	src := `policy p { filter = stealee.load / (thief.load - thief.load) >= 0 }`
	pol, _, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m := sched.MachineFromLoads(1, 2)
	if !pol.CanSteal(m.Core(0), m.Core(1)) {
		t.Error("0/0 >= 0 should hold under total semantics")
	}
}

func TestOperatorsAndPrecedence(t *testing.T) {
	src := `policy p {
	    filter = stealee.load * 2 - 1 >= 3 && !(thief.load == 1) || thief.id != 0
	}`
	pol, _, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m := sched.MachineFromLoads(0, 2)
	// stealee.load*2-1 = 3 >= 3 true; thief.load==0 so !(==1) true -> true.
	if !pol.CanSteal(m.Core(0), m.Core(1)) {
		t.Error("expression evaluated incorrectly")
	}
	m2 := sched.MachineFromLoads(1, 1)
	// 2*1-1=1 >= 3 false; thief.id != 0 false -> false.
	if pol.CanSteal(m2.Core(0), m2.Core(1)) {
		t.Error("expression should be false")
	}
}

func TestUnaryMinusAndModulo(t *testing.T) {
	src := `policy p { filter = -(0 - stealee.load) % 2 == 0 }`
	pol, _, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	even := sched.MachineFromLoads(0, 2)
	odd := sched.MachineFromLoads(0, 3)
	if !pol.CanSteal(even.Core(0), even.Core(1)) {
		t.Error("2 %% 2 == 0 should hold")
	}
	if pol.CanSteal(odd.Core(0), odd.Core(1)) {
		t.Error("3 %% 2 == 0 should not hold")
	}
}

func TestGenerateGoCode(t *testing.T) {
	ast, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	code := Generate(ast, "policies")
	for _, frag := range []string{
		"package policies",
		"type Delta2 struct{}",
		`func (p *Delta2) Name() string { return "delta2" }`,
		"func (p *Delta2) Load(c *sched.Core) int64",
		"func (p *Delta2) CanSteal(thief, stealee *sched.Core) bool",
		"(p.Load(stealee) - p.Load(thief)) >= int64(2)",
		"sched.ChooseMaxLoad",
		"DO NOT EDIT",
	} {
		if !strings.Contains(code, frag) {
			t.Errorf("generated code missing %q:\n%s", frag, code)
		}
	}
	support := GenerateSupport("policies")
	if !strings.Contains(support, "func currentSize") {
		t.Errorf("support missing currentSize:\n%s", support)
	}
}

func TestGenerateAllChoosers(t *testing.T) {
	for _, choose := range []string{"first", "max_load", "min_load", "random(3)"} {
		ast, err := Parse(`policy gen_test { filter = stealee.load >= 2 choose = ` + choose + ` }`)
		if err != nil {
			t.Fatal(err)
		}
		code := Generate(ast, "p")
		if !strings.Contains(code, "func (p *GenTest) Choose") {
			t.Errorf("chooser %s: missing Choose method", choose)
		}
	}
}

func TestExportedName(t *testing.T) {
	cases := map[string]string{
		"delta2": "Delta2", "my_policy": "MyPolicy", "a-b": "AB", "": "Policy",
	}
	for in, want := range cases {
		if got := exportedName(in); got != want {
			t.Errorf("exportedName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNumericUnderscores(t *testing.T) {
	pol, _, err := CompileSource(`policy p { load = self.weight.sum filter = stealee.load >= 2_048 }`)
	if err != nil {
		t.Fatal(err)
	}
	m := machineFromSpec(sched.CoreSpec{}, sched.CoreSpec{Running: 2048})
	if !pol.CanSteal(m.Core(0), m.Core(1)) {
		t.Error("underscore literal mis-lexed")
	}
}
