package policy

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dsl"
	"repro/internal/sched"
	"repro/internal/topology"
)

// machineFromSpec builds a fresh machine from explicit per-core specs.
func machineFromSpec(specs ...sched.CoreSpec) *sched.Machine {
	m := new(sched.Machine)
	m.SetFromSpec(specs)
	return m
}

func TestDelta2Filter(t *testing.T) {
	p := NewDelta2()
	m := sched.MachineFromLoads(0, 1, 2, 3)
	cases := []struct {
		thief, stealee int
		want           bool
	}{
		{0, 2, true},  // 2-0 >= 2
		{0, 3, true},  // 3-0 >= 2
		{0, 1, false}, // 1-0 < 2
		{1, 2, false}, // 2-1 < 2
		{1, 3, true},  // 3-1 >= 2
		{3, 0, false}, // stealing downhill
		{2, 2, false}, // self-gap 0
	}
	for _, tc := range cases {
		got := p.CanSteal(m.Core(tc.thief), m.Core(tc.stealee))
		if got != tc.want {
			t.Errorf("CanSteal(c%d, c%d) = %v, want %v", tc.thief, tc.stealee, got, tc.want)
		}
	}
}

func TestDelta2Lemma1Instances(t *testing.T) {
	// Listing 2's Lemma1 on concrete machines: an idle thief can steal
	// iff some core is overloaded, and only from overloaded cores.
	p := NewDelta2()
	m := sched.MachineFromLoads(0, 1, 2)
	thief := m.Core(0)
	canFromOverloaded := p.CanSteal(thief, m.Core(2))
	if !canFromOverloaded {
		t.Error("idle thief cannot steal from overloaded core")
	}
	if p.CanSteal(thief, m.Core(1)) {
		t.Error("idle thief may steal from a non-overloaded core")
	}
}

func TestDelta2SequentialConvergence(t *testing.T) {
	p := NewDelta2()
	m := sched.MachineFromLoads(0, 8, 0, 4)
	for i := 0; i < 32 && !m.WorkConserved(); i++ {
		sched.SequentialRound(p, m)
	}
	if !m.WorkConserved() {
		t.Fatalf("no convergence: %v", m.Loads())
	}
	if m.TotalThreads() != 12 {
		t.Errorf("threads not conserved: %v", m.Loads())
	}
}

func TestDelta2StealCountIsOne(t *testing.T) {
	p := NewDelta2()
	if p.StealCount(nil, nil) != 1 {
		t.Error("Delta2 must steal exactly one task")
	}
}

func TestWeightedPickTask(t *testing.T) {
	p := NewWeighted()
	// Thief idle; stealee runs w=4 and queues w=1, w=2, w=8.
	m := machineFromSpec(
		sched.CoreSpec{},
		sched.CoreSpec{Running: 4, Queued: []int64{1, 2, 8}},
	)
	thief, stealee := m.Core(0), m.Core(1)
	// gap = 15; every queued task is admissible (w < 15). Residuals
	// |15-2w|: w=1 -> 13, w=2 -> 11, w=8 -> 1. The picker wants w=8.
	pick := p.PickTask(thief, stealee)
	if pick == nil {
		t.Fatal("PickTask = nil")
	}
	picked := stealee.Remove(pick.ID)
	if picked == nil || picked.Weight != 8 {
		t.Errorf("picked %v, want the weight-8 task", picked)
	}
}

func TestWeightedFilterRequiresAdmissibleTask(t *testing.T) {
	p := NewWeighted()
	// gap = 8 but the only queued task weighs 8: 2*8 > 8, inadmissible —
	// migrating it would just swap the imbalance.
	m := machineFromSpec(
		sched.CoreSpec{},
		sched.CoreSpec{Queued: []int64{8}},
	)
	if p.CanSteal(m.Core(0), m.Core(1)) {
		t.Error("filter admitted a steal that cannot decrease the gap")
	}
	// With an extra small task the steal becomes possible.
	m2 := machineFromSpec(
		sched.CoreSpec{},
		sched.CoreSpec{Queued: []int64{8, 3}},
	)
	if !p.CanSteal(m2.Core(0), m2.Core(1)) {
		t.Error("filter rejected an admissible steal")
	}
}

func TestWeightedStealDecreasesWeightedPotential(t *testing.T) {
	p := NewWeighted()
	m := machineFromSpec(
		sched.CoreSpec{},
		sched.CoreSpec{Running: 1, Queued: []int64{1, 2, 4}},
		sched.CoreSpec{Running: 2},
	)
	for i := 0; i < 16; i++ {
		before := sched.PairwiseImbalance(p, m)
		res := sched.SequentialRound(p, m)
		after := sched.PairwiseImbalance(p, m)
		if res.TasksMoved() == 0 {
			break
		}
		if after >= before {
			t.Fatalf("round %d: weighted potential %d -> %d", i, before, after)
		}
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestWeightedUnitWeightsBehaveLikeDelta2(t *testing.T) {
	// On unit-weight workloads the weighted filter must coincide with
	// Delta2's decisions.
	w, d := NewWeighted(), NewDelta2()
	f := func(a, b uint8) bool {
		la, lb := int(a%6), int(b%6)
		m := machineFromSpec(
			sched.CoreSpec{Queued: unitWeights(la)},
			sched.CoreSpec{Queued: unitWeights(lb)},
		)
		return w.CanSteal(m.Core(0), m.Core(1)) == d.CanSteal(m.Core(0), m.Core(1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func unitWeights(n int) []int64 {
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = 1
	}
	return ws
}

// mustNew builds the registered policy name.
func mustNew(t *testing.T, name string) sched.Policy {
	t.Helper()
	p, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGreedyBuggyAcceptsDownhillSteal(t *testing.T) {
	p := mustNew(t, "greedy-buggy")
	m := sched.MachineFromLoads(1, 2)
	// A load-1 core may steal from a load-2 core: the ping-pong enabler.
	if !p.CanSteal(m.Core(0), m.Core(1)) {
		t.Error("greedy filter should accept the load-1 thief")
	}
}

func TestGreedyBuggyPingPong(t *testing.T) {
	// Reproduce the §4.3 scenario concretely: rounds alternate and core 0
	// remains idle while the machine keeps an overloaded core.
	p := mustNew(t, "greedy-buggy")
	m := sched.MachineFromLoads(0, 1, 2)
	for round := 0; round < 6; round++ {
		// Adversarial order: the non-idle thief steals first.
		var order []int
		if m.Core(1).NThreads() < m.Core(2).NThreads() {
			order = []int{1, 0, 2}
		} else {
			order = []int{2, 0, 1}
		}
		sched.ConcurrentRound(p, m, order)
		if !m.Core(0).Idle() {
			t.Fatalf("round %d: core 0 escaped idleness — adversary broken", round)
		}
		if m.WorkConserved() {
			t.Fatalf("round %d: machine became work-conserved", round)
		}
	}
}

func TestCFSGroupBuggyWitness(t *testing.T) {
	// The E6 witness: group 0 = {idle, one heavy thread}, group 1 = {two
	// overloaded cores}. The buggy filter must refuse the cross-group
	// steal; Delta2 must accept it.
	m := machineFromSpec(
		sched.CoreSpec{},                                     // core 0: idle (group 0)
		sched.CoreSpec{Running: 8192},                        // core 1: one heavy thread (group 0)
		sched.CoreSpec{Running: 1024, Queued: []int64{1024}}, // core 2 (group 1)
		sched.CoreSpec{Running: 1024, Queued: []int64{1024}}, // core 3 (group 1)
	)
	top := topology.NUMA(2, 2)
	AssignGroups(m, top)

	buggy := NewCFSGroupBuggy()
	buggy.BeginRound(m)
	if buggy.CanSteal(m.Core(0), m.Core(2)) {
		t.Error("buggy filter should refuse the cross-group steal (avg trap)")
	}
	// The whole selection finds nothing for core 0.
	att := sched.Select(buggy, m, 0)
	if att.Victim != -1 {
		t.Errorf("buggy policy selected victim %d for the idle core", att.Victim)
	}

	d := NewDelta2()
	if !d.CanSteal(m.Core(0), m.Core(2)) {
		t.Error("Delta2 should accept the steal the buggy policy refuses")
	}
}

func TestCFSGroupBuggyIntraGroupStillWorks(t *testing.T) {
	m := machineFromSpec(
		sched.CoreSpec{}, // idle, group 0
		sched.CoreSpec{Running: 1024, Queued: []int64{1024, 1024}}, // group 0
		sched.CoreSpec{Running: 1024},                              // group 1
		sched.CoreSpec{Running: 1024},                              // group 1
	)
	AssignGroups(m, topology.NUMA(2, 2))
	p := NewCFSGroupBuggy()
	res := sched.SequentialRound(p, m)
	if res.TasksMoved() == 0 {
		t.Error("intra-group steal should succeed under the buggy policy")
	}
	if m.Core(0).Idle() {
		t.Error("core 0 still idle after intra-group balancing")
	}
}

func TestHierarchicalIdleEscape(t *testing.T) {
	// Same witness as the buggy test: the sound hierarchical policy must
	// let the idle core escape its heavy-looking group.
	m := machineFromSpec(
		sched.CoreSpec{},
		sched.CoreSpec{Running: 8192},
		sched.CoreSpec{Running: 1024, Queued: []int64{1024}},
		sched.CoreSpec{Running: 1024, Queued: []int64{1024}},
	)
	AssignGroups(m, topology.NUMA(2, 2))
	p := NewHierarchical()
	p.BeginRound(m)
	if !p.CanSteal(m.Core(0), m.Core(2)) {
		t.Error("hierarchical policy must allow the idle-escape steal")
	}
	res := sched.SequentialRound(p, m)
	if res.TasksMoved() == 0 || m.Core(0).Idle() {
		t.Errorf("idle core not rescued: %v", m.Loads())
	}
}

func TestHierarchicalPrefersOwnGroup(t *testing.T) {
	// Loads: thief idle in group 0; both a same-group and a cross-group
	// core are overloaded. Choose must prefer the same-group one.
	m := sched.MachineFromLoads(0, 3, 3, 0)
	AssignGroups(m, topology.NUMA(2, 2))
	p := NewHierarchical()
	att := sched.Select(p, m, 0)
	if att.Victim != 1 {
		t.Errorf("Victim = %d, want same-group core 1", att.Victim)
	}
}

func TestHierarchicalRestrictsNonIdleCrossGroup(t *testing.T) {
	// A non-idle thief in the heavier group must not steal cross-group.
	m := sched.MachineFromLoads(1, 4, 3, 0)
	AssignGroups(m, topology.NUMA(2, 2))
	p := NewHierarchical()
	p.BeginRound(m)
	// Thief core 3 (load 0, idle) may take from group 0.
	if !p.CanSteal(m.Core(3), m.Core(1)) {
		t.Error("idle cross-group steal refused")
	}
	// Thief core 2 (load 3, group 1, group sum 3) vs stealee core 1
	// (load 4... gap 1 < 2): filter already rejects by Delta2.
	if p.CanSteal(m.Core(2), m.Core(1)) {
		t.Error("gap-1 steal accepted")
	}
	// Make the gap 2 but keep thief's group heavier: loads 1,6,3,0 —
	// wait, group 0 sum=7 > group 1 sum=3, so core 2 (load 3) stealing
	// from core 1 (load 6) is allowed (stealee group heavier). Invert:
	// thief in heavy group, stealee lighter group with local gap >= 2.
	m2 := sched.MachineFromLoads(9, 1, 3, 0)
	AssignGroups(m2, topology.NUMA(2, 2))
	p2 := NewHierarchical()
	p2.BeginRound(m2)
	// Core 1 (load 1, group 0 sum 10) vs core 2 (load 3, group 1 sum 3):
	// Delta2 gap = 2 passes, but thief's group is heavier and thief is
	// not idle: refused.
	if p2.CanSteal(m2.Core(1), m2.Core(2)) {
		t.Error("non-idle thief in heavier group stole cross-group")
	}
}

func TestNUMAAwareChoosesLocalVictim(t *testing.T) {
	top := topology.NUMA(2, 2)
	p := NewNUMAAware(top)
	// Core 0 idle; overloaded cores on both nodes; the remote one is more
	// loaded. NUMA-aware choice must still pick the local one.
	m := sched.MachineFromLoads(0, 3, 5, 1)
	AssignGroups(m, top)
	att := sched.Select(p, m, 0)
	if att.Victim != 1 {
		t.Errorf("Victim = %d, want local core 1", att.Victim)
	}
	// And it behaves exactly like Delta2 on the filter.
	d := NewDelta2()
	for _, c := range m.Cores {
		if p.CanSteal(m.Core(0), c) != d.CanSteal(m.Core(0), c) {
			t.Error("NUMA-aware filter diverged from Delta2")
		}
	}
}

func TestRandomChoiceStaysInCandidates(t *testing.T) {
	p := mustNew(t, "random-choice")
	m := sched.MachineFromLoads(0, 3, 4, 5)
	for i := 0; i < 50; i++ {
		att := sched.Select(p, m, 0)
		found := false
		for _, c := range att.Candidates {
			if c == att.Victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("victim %d not among candidates %v", att.Victim, att.Candidates)
		}
	}
}

func TestRandomChoiceZeroSeed(t *testing.T) {
	// random-choice's source with seed 0: xorshift64 never leaves state
	// 0, so the choice must start from another state and still pick the
	// only candidate.
	spec, ok := Lookup("random-choice")
	if !ok {
		t.Fatal("random-choice not registered")
	}
	ast, err := dsl.Parse(strings.Replace(spec.DSL, "random(1)", "random(0)", 1))
	if err != nil {
		t.Fatal(err)
	}
	p := dsl.Compile(ast)
	m := sched.MachineFromLoads(0, 3)
	for i := 0; i < 4; i++ {
		if att := sched.Select(p, m, 0); att.Victim != 1 {
			t.Errorf("call %d: Victim = %d, want 1", i, att.Victim)
		}
	}
}

func TestNullNeverSteals(t *testing.T) {
	p := mustNew(t, "null")
	m := sched.MachineFromLoads(0, 10)
	res := sched.SequentialRound(p, m)
	if res.TasksMoved() != 0 {
		t.Error("null policy moved tasks")
	}
	if m.WorkConserved() {
		t.Error("machine should remain in violation under null policy")
	}
}

func TestDelta1AggressiveSwaps(t *testing.T) {
	p := mustNew(t, "delta1-aggressive")
	// 0/1 with the only thread queued (not running): the aggressive
	// filter admits the steal, producing 1/0 — a swap that does not
	// decrease the potential.
	m := machineFromSpec(
		sched.CoreSpec{},
		sched.CoreSpec{Queued: []int64{1024}},
	)
	before := sched.PairwiseImbalance(p, m)
	res := sched.SequentialRound(p, m)
	if res.TasksMoved() == 0 {
		t.Fatal("aggressive policy did not steal")
	}
	if got := sched.PairwiseImbalance(p, m); got != before {
		t.Errorf("potential changed %d -> %d, expected a pure swap", before, got)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Errorf("Names() = %v, want 11 policies", names)
	}
	for _, n := range names {
		p, err := New(n)
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("policy %q has empty Name", n)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("New of unknown policy should fail")
	}
	// Factories must return fresh instances.
	a, _ := New("hierarchical")
	b, _ := New("hierarchical")
	if a == b {
		t.Error("registry returned a shared instance")
	}
}

// The stateless natives share one instance across factory calls, the
// way dsl.Compile shares a stateless program; a policy with round
// caches, chooser state or a topology still gets a fresh one per call.
func TestStatelessSpecsShareOneInstance(t *testing.T) {
	same := func(a, b sched.Policy) bool { return a == b }
	for _, name := range []string{"delta2", "weighted", "greedy-buggy", "null", "delta1-aggressive", "delta2-gen"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		if !same(spec.New(nil), spec.New(nil)) {
			t.Errorf("%s: two New calls returned distinct instances, want one shared", name)
		}
	}
	for _, name := range []string{"hierarchical", "cfs-group-buggy", "random-choice", "numa-aware"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		if same(spec.New(nil), spec.New(nil)) {
			t.Errorf("%s: two New calls returned one instance, want fresh ones", name)
		}
	}
}

func TestDSLBackedFactoryOnlyCompiles(t *testing.T) {
	// Verifiers call a factory per state and per game node, so a
	// DSL-backed one must cost what dsl.Compile costs: the source is
	// lexed and parsed once, at registration.
	for _, name := range []string{"greedy-buggy", "null", "delta1-aggressive", "random-choice", "delta2-rescue"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		ast, err := dsl.Parse(spec.DSL)
		if err != nil {
			t.Fatal(err)
		}
		compile := testing.AllocsPerRun(100, func() { dsl.Compile(ast) })
		if got := testing.AllocsPerRun(100, func() { spec.New(nil) }); got != compile {
			t.Errorf("%s: spec.New allocates %v times per call, dsl.Compile %v: the factory re-parses its source", name, got, compile)
		}
	}
}

func TestAssignGroups(t *testing.T) {
	m := sched.MachineFromLoads(1, 1, 1, 1, 1, 1)
	top := topology.NUMA(3, 2)
	AssignGroups(m, top)
	for i, c := range m.Cores {
		if c.Group != i/2 || c.Node != i/2 {
			t.Errorf("core %d: group=%d node=%d", i, c.Group, c.Node)
		}
	}
}

// Property: Delta2's filter passes only overloaded stealees (the second
// conjunct of Lemma 1) for arbitrary two-core states.
func TestDelta2OnlyOverloadedProperty(t *testing.T) {
	p := NewDelta2()
	f := func(a, b uint8) bool {
		m := sched.MachineFromLoads(int(a%8), int(b%8))
		if p.CanSteal(m.Core(0), m.Core(1)) && !m.Core(1).Overloaded() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the weighted picker, when it picks, always picks a queued task
// that strictly decreases the weighted gap.
func TestWeightedPickerSoundProperty(t *testing.T) {
	p := NewWeighted()
	f := func(run uint8, queued []uint8) bool {
		if len(queued) > 5 {
			queued = queued[:5]
		}
		spec := sched.CoreSpec{}
		if run%4 > 0 {
			spec.Running = int64(run%4) * 512
		}
		for _, q := range queued {
			spec.Queued = append(spec.Queued, int64(q%7)+1)
		}
		m := machineFromSpec(sched.CoreSpec{}, spec)
		thief, stealee := m.Core(0), m.Core(1)
		pick := p.PickTask(thief, stealee)
		if pick == nil {
			return true
		}
		gap := p.Load(stealee) - p.Load(thief)
		task := stealee.Remove(pick.ID)
		if task == nil {
			return false // picked a non-queued task
		}
		// The strict-decrease condition of the potential proof: moving
		// the task shrinks the thief/stealee gap |gap| to |gap - 2w|.
		after := gap - 2*task.Weight
		return task.Weight > 0 && after < gap && -after < gap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegistrySpecs(t *testing.T) {
	specs := Specs()
	if len(specs) != len(Names()) {
		t.Fatalf("Specs() has %d entries, Names() %d", len(specs), len(Names()))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Name >= specs[i].Name {
			t.Errorf("Specs() not sorted: %q before %q", specs[i-1].Name, specs[i].Name)
		}
	}
	for _, s := range specs {
		if s.Doc == "" || s.Provenance == "" {
			t.Errorf("spec %q missing metadata: %+v", s.Name, s)
		}
		if p := s.New(nil); p == nil || p.Name() == "" {
			t.Errorf("spec %q built an unnamed policy", s.Name)
		}
	}
}

func TestRegistryNUMAAware(t *testing.T) {
	s, ok := Lookup("numa-aware")
	if !ok || !s.NeedsTopology() {
		t.Fatalf("numa-aware not registered as topology-needing: %+v", s)
	}
	// Constructible without a topology (default 2×4 NUMA machine)…
	p, err := New("numa-aware")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
	// …and with an explicit one.
	if _, err := NewWithTopology("numa-aware", topology.NUMA(4, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterRejectsBadSpecs(t *testing.T) {
	mustPanic := func(name string, s Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("empty name", Spec{})
	mustPanic("duplicate", Spec{Name: "delta2", Factory: func() sched.Policy { return NewDelta2() }})
	mustPanic("both factories", Spec{Name: "x", Factory: func() sched.Policy { return NewDelta2() },
		TopologyFactory: func(*topology.Topology) sched.Policy { return NewDelta2() }})
	mustPanic("no factory", Spec{Name: "y"})
	mustPanic("DSL-only spec that does not parse", Spec{Name: "z", DSL: "policy z {"})
}
