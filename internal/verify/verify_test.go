package verify

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
)

func delta2Factory() sched.Policy   { return policy.NewDelta2() }
func weightedFactory() sched.Policy { return policy.NewWeighted() }
func greedyFactory() sched.Policy   { return registered("greedy-buggy") }

// registered builds the registry's policy name.
func registered(name string) sched.Policy {
	p, err := policy.New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// check runs one obligation over u on the pooled driver; checkCtx is the
// cancellable form.
func check(id ObligationID, f Factory, u statespace.Universe) Result {
	return checkCtx(context.Background(), id, f, u)
}

func checkCtx(ctx context.Context, id ObligationID, f Factory, u statespace.Universe) Result {
	return RunObligation(ctx, id, f, Config{Universe: u})
}

// sequentialReport is the full suite on the calling goroutine.
func sequentialReport(name string, f Factory, cfg Config) *Report {
	cfg.Sequential = true
	rep, _ := PolicyContext(context.Background(), name, f, cfg)
	return rep
}

// smallUniverse keeps individual obligation tests fast.
func smallUniverse() statespace.Universe {
	return statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 4, IncludeUnscheduled: true}
}

func TestLemma1Delta2(t *testing.T) {
	r := check(ObLemma1, delta2Factory, smallUniverse())
	if !r.Passed {
		t.Fatalf("Lemma 1 failed for Delta2: %s", r.Witness)
	}
	if r.StatesChecked == 0 {
		t.Error("no states checked")
	}
}

func TestLemma1Weighted(t *testing.T) {
	u := statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4,
		Weights: []int64{1, 3}, IncludeUnscheduled: true}
	r := check(ObLemma1, weightedFactory, u)
	if !r.Passed {
		t.Fatalf("Lemma 1 failed for Weighted: %s", r.Witness)
	}
}

func TestLemma1GreedyHoldsSequentially(t *testing.T) {
	// The §4.3 point: the buggy greedy filter is fine by the sequential
	// lemma — only concurrency breaks it.
	r := check(ObLemma1, greedyFactory, smallUniverse())
	if !r.Passed {
		t.Fatalf("Lemma 1 should hold for greedy-buggy: %s", r.Witness)
	}
}

func TestLemma1CatchesBadFilter(t *testing.T) {
	// A filter that steals from non-overloaded cores must fail the
	// forall direction.
	f := func() sched.Policy {
		return &sched.FuncPolicy{
			PolicyName: "steal-anything",
			LoadFn:     func(c *sched.Core) int64 { return int64(c.NThreads()) },
			FilterFn:   func(_, s *sched.Core) bool { return s.NThreads() >= 1 },
		}
	}
	r := check(ObLemma1, f, smallUniverse())
	if r.Passed {
		t.Fatal("steal-anything filter passed Lemma 1")
	}
	if !strings.Contains(r.Witness, "non-overloaded") {
		t.Errorf("witness = %q", r.Witness)
	}
}

func TestLemma1CatchesTimidFilter(t *testing.T) {
	// A filter that never steals fails the exists direction.
	r := check(ObLemma1, func() sched.Policy { return policy.NewNull() }, smallUniverse())
	if r.Passed {
		t.Fatal("null policy passed Lemma 1")
	}
	if !strings.Contains(r.Witness, "no candidate") {
		t.Errorf("witness = %q", r.Witness)
	}
}

func TestStealSoundnessDelta2(t *testing.T) {
	r := check(ObStealSoundness, delta2Factory, smallUniverse())
	if !r.Passed {
		t.Fatalf("steal soundness failed for Delta2: %s", r.Witness)
	}
}

func TestStealSoundnessWeighted(t *testing.T) {
	u := statespace.Universe{Cores: 2, MaxPerCore: 3, Weights: []int64{1, 2, 5}, IncludeUnscheduled: true}
	r := check(ObStealSoundness, weightedFactory, u)
	if !r.Passed {
		t.Fatalf("steal soundness failed for Weighted: %s", r.Witness)
	}
}

func TestStealSoundnessCatchesDraining(t *testing.T) {
	// delta1-aggressive can steal a core's only (queued) thread.
	r := check(ObStealSoundness, func() sched.Policy { return registered("delta1-aggressive") },
		statespace.Universe{Cores: 2, MaxPerCore: 2, IncludeUnscheduled: true})
	if r.Passed {
		t.Fatal("delta1-aggressive passed steal soundness")
	}
	if !strings.Contains(r.Witness, "emptied") {
		t.Errorf("witness = %q", r.Witness)
	}
}

func TestPotentialDecreaseDelta2(t *testing.T) {
	r := check(ObPotentialDecrease, delta2Factory, smallUniverse())
	if !r.Passed {
		t.Fatalf("potential decrease failed for Delta2: %s", r.Witness)
	}
}

func TestPotentialDecreaseWeighted(t *testing.T) {
	u := statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4,
		Weights: []int64{1, 4}, IncludeUnscheduled: true}
	r := check(ObPotentialDecrease, weightedFactory, u)
	if !r.Passed {
		t.Fatalf("potential decrease failed for Weighted: %s", r.Witness)
	}
}

func TestPotentialDecreaseFailsForGreedy(t *testing.T) {
	r := check(ObPotentialDecrease, greedyFactory, smallUniverse())
	if r.Passed {
		t.Fatal("greedy-buggy passed the potential-decrease obligation")
	}
	if !strings.Contains(r.Witness, "no strict decrease") {
		t.Errorf("witness = %q", r.Witness)
	}
}

func TestFailureImpliesSuccessDelta2(t *testing.T) {
	r := check(ObFailureImpliesSucc, delta2Factory, smallUniverse())
	if !r.Passed {
		t.Fatalf("failure-implies-success failed for Delta2: %s", r.Witness)
	}
	if r.SchedulesChecked == 0 {
		t.Error("no schedules checked")
	}
}

func TestFailureImpliesSuccessGreedy(t *testing.T) {
	// Even the buggy policy satisfies this obligation: its failures are
	// always caused by successes — the problem is that successes are
	// unbounded, which is the *other* obligation.
	r := check(ObFailureImpliesSucc, greedyFactory, smallUniverse())
	if !r.Passed {
		t.Fatalf("failure-implies-success failed for greedy-buggy: %s", r.Witness)
	}
}

func TestWorkConservationSequentialDelta2(t *testing.T) {
	r := check(ObWorkConservSeq, delta2Factory, smallUniverse())
	if !r.Passed {
		t.Fatalf("sequential WC failed for Delta2: %s", r.Witness)
	}
	if r.Bound < 1 {
		t.Errorf("worst-case N = %d, expected at least 1 round somewhere", r.Bound)
	}
}

func TestWorkConservationSequentialGreedy(t *testing.T) {
	// §4.2 vs §4.3: greedy is work-conserving without concurrency.
	r := check(ObWorkConservSeq, greedyFactory, smallUniverse())
	if !r.Passed {
		t.Fatalf("sequential WC failed for greedy-buggy: %s", r.Witness)
	}
}

func TestWorkConservationSequentialNullFails(t *testing.T) {
	r := check(ObWorkConservSeq, func() sched.Policy { return policy.NewNull() },
		smallUniverse())
	if r.Passed {
		t.Fatal("null policy passed sequential WC")
	}
	if !strings.Contains(r.Witness, "stuck") {
		t.Errorf("witness = %q", r.Witness)
	}
}

func TestWorkConservationConcurrentDelta2(t *testing.T) {
	r := check(ObWorkConservConc, delta2Factory, smallUniverse())
	if !r.Passed {
		t.Fatalf("concurrent WC failed for Delta2: %s", r.Witness)
	}
	if r.Bound < 1 {
		t.Errorf("worst-case N = %d", r.Bound)
	}
}

func TestWorkConservationConcurrentGreedyLivelock(t *testing.T) {
	// The headline result: the explorer must automatically find the
	// §4.3 ping-pong livelock for the greedy filter.
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 3}
	r := check(ObWorkConservConc, greedyFactory, u)
	if r.Passed {
		t.Fatal("greedy-buggy passed concurrent WC — livelock not found")
	}
	if !strings.Contains(r.Witness, "livelock") {
		t.Errorf("witness = %q", r.Witness)
	}
	t.Logf("counterexample: %s", r.Witness)
}

func TestWorkConservationConcurrentHierarchical(t *testing.T) {
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 4,
		IncludeUnscheduled: true, Groups: []int{0, 0, 1}}
	r := check(ObWorkConservConc, func() sched.Policy { return policy.NewHierarchical() }, u)
	if !r.Passed {
		t.Fatalf("concurrent WC failed for Hierarchical: %s", r.Witness)
	}
}

func TestCFSGroupBuggyFailsLemma1(t *testing.T) {
	// The motivation bug is caught at the cheapest obligation: with
	// groups and a heavy thread, an idle thief has no candidate.
	u := statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 5,
		Weights: []int64{1, 8}, Groups: []int{0, 0, 1, 1}}
	r := check(ObLemma1, func() sched.Policy { return policy.NewCFSGroupBuggy() }, u)
	if r.Passed {
		t.Fatal("CFSGroupBuggy passed Lemma 1")
	}
	if !strings.Contains(r.Witness, "no candidate") {
		t.Errorf("witness = %q", r.Witness)
	}
	t.Logf("counterexample: %s", r.Witness)
}

func TestHierarchicalPassesLemma1WithGroups(t *testing.T) {
	u := statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 4,
		Groups: []int{0, 0, 1, 1}, IncludeUnscheduled: true}
	r := check(ObLemma1, func() sched.Policy { return policy.NewHierarchical() }, u)
	if !r.Passed {
		t.Fatalf("Lemma 1 failed for Hierarchical: %s", r.Witness)
	}
}

func TestVerifyPolicyFullReportDelta2(t *testing.T) {
	rep := sequentialReport("delta2", delta2Factory, Config{Universe: smallUniverse()})
	if !rep.Passed() {
		t.Fatalf("Delta2 report failed:\n%s", rep)
	}
	if len(rep.Results) != len(AllObligations()) {
		t.Errorf("results = %d, want %d", len(rep.Results), len(AllObligations()))
	}
	for i, id := range AllObligations() {
		if rep.Results[i].ID != id {
			t.Errorf("Results[%d] = %s, want %s", i, rep.Results[i].ID, id)
		}
	}
	if !strings.Contains(rep.String(), "WORK-CONSERVING") {
		t.Errorf("report: %s", rep)
	}
}

func TestVerifyPolicyFullReportGreedy(t *testing.T) {
	rep := sequentialReport("greedy-buggy", greedyFactory, Config{Universe: smallUniverse()})
	if rep.Passed() {
		t.Fatal("greedy-buggy report passed")
	}
	var failed []ObligationID
	for _, res := range rep.Results {
		if !res.Passed {
			failed = append(failed, res.ID)
		}
	}
	wantFailed := map[ObligationID]bool{
		ObPotentialDecrease:  true,
		ObWorkConservConc:    true,
		ObChoiceIndependence: true, // livelocks regardless of the chooser
		ObReactivity:         true, // core 0 starves in the ping-pong
	}
	for _, id := range failed {
		if !wantFailed[id] {
			t.Errorf("unexpected failed obligation %s", id)
		}
		delete(wantFailed, id)
	}
	for id := range wantFailed {
		t.Errorf("obligation %s should have failed", id)
	}
	if !strings.Contains(rep.String(), "NOT PROVEN") {
		t.Errorf("report: %s", rep)
	}
}

func TestVerifyPolicyDefaults(t *testing.T) {
	rep := sequentialReport("delta2", delta2Factory, Config{
		Obligations: []ObligationID{ObLemma1},
	})
	if len(rep.Results) != 1 || rep.Results[0].ID != ObLemma1 {
		t.Fatalf("results: %+v", rep.Results)
	}
	if !strings.Contains(rep.Universe, "cores:3") {
		t.Errorf("default universe not applied: %s", rep.Universe)
	}
}

func TestVerifyPolicyUnknownObligationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown obligation did not panic")
		}
	}()
	sequentialReport("delta2", delta2Factory, Config{Obligations: []ObligationID{"bogus"}})
}

func TestChoiceIndependenceDelta2(t *testing.T) {
	// The paper's structural claim: any step-2 choice preserves work
	// conservation when the filter is sound. The adversary picks both
	// the victims and the steal order.
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 4, IncludeUnscheduled: true}
	r := check(ObChoiceIndependence, delta2Factory, u)
	if !r.Passed {
		t.Fatalf("choice independence failed for Delta2: %s", r.Witness)
	}
	// The choice adversary explores strictly more schedules than the
	// order-only adversary.
	r2 := check(ObWorkConservConc, delta2Factory, u)
	if r.SchedulesChecked <= r2.SchedulesChecked {
		t.Errorf("choice adversary explored %d schedules, order adversary %d",
			r.SchedulesChecked, r2.SchedulesChecked)
	}
}

func TestChoiceIndependenceGreedyFails(t *testing.T) {
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 3}
	r := check(ObChoiceIndependence, greedyFactory, u)
	if r.Passed {
		t.Fatal("greedy passed choice independence")
	}
	if !strings.Contains(r.Witness, "victims") {
		t.Errorf("witness should carry victim vectors: %q", r.Witness)
	}
}

func TestChoiceIndependenceHierarchical(t *testing.T) {
	u := statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4,
		IncludeUnscheduled: true, Groups: []int{0, 0, 1}}
	r := check(ObChoiceIndependence, func() sched.Policy { return policy.NewHierarchical() }, u)
	if !r.Passed {
		t.Fatalf("choice independence failed for Hierarchical: %s", r.Witness)
	}
}

func TestReactivityDelta2(t *testing.T) {
	// The §1 property the paper lists as unproven: a bound on the delay
	// before an idle core gets work. For Delta2 the bound exists and is
	// small over the bounded universe.
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 4, IncludeUnscheduled: true}
	r := check(ObReactivity, delta2Factory, u)
	if !r.Passed {
		t.Fatalf("reactivity failed for Delta2: %s", r.Witness)
	}
	if r.Bound < 1 || r.Bound > 3 {
		t.Errorf("reactivity bound = %d rounds, want a small positive bound", r.Bound)
	}
	t.Logf("delta2 reactivity bound: %d round(s) over %d schedules", r.Bound, r.SchedulesChecked)
}

func TestReactivityGreedyStarves(t *testing.T) {
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 3}
	r := check(ObReactivity, greedyFactory, u)
	if r.Passed {
		t.Fatal("greedy passed reactivity despite the starvation cycle")
	}
	if !strings.Contains(r.Witness, "can starve") {
		t.Errorf("witness = %q", r.Witness)
	}
}

func TestReactivityNullFails(t *testing.T) {
	r := check(ObReactivity, func() sched.Policy { return policy.NewNull() },
		statespace.Universe{Cores: 2, MaxPerCore: 2})
	if r.Passed {
		t.Fatal("null policy passed reactivity")
	}
}

func TestRevalidationAblation(t *testing.T) {
	u := statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true}
	res := CheckRevalidationAblation(context.Background(), delta2Factory, u)
	if res.SoundnessViolations == 0 {
		t.Error("removing re-validation produced no soundness violations — ablation shows nothing")
	}
	if res.FirstWitness == "" {
		t.Error("no witness recorded")
	}
	t.Logf("ablation: %d soundness violations, %d potential violations over %d schedules; e.g. %s",
		res.SoundnessViolations, res.PotentialViolations, res.SchedulesChecked, res.FirstWitness)

	// The ablation is a steady-state sweep: it never applies a fault
	// script, so a fault-extended universe must not make it count every
	// healthy machine once per script.
	u.MaxFaults = 1
	if faulty := CheckRevalidationAblation(context.Background(), delta2Factory, u); faulty != res {
		t.Errorf("ablation over MaxFaults=1 diverged from the healthy universe:\n%+v\nvs\n%+v", faulty, res)
	}
}

// reportBytes is the canonical encoding the byte-identity contracts are
// stated over.
func reportBytes(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertRunObligationMatches checks RunObligation's contract against a
// full report: each obligation run on its own, under cfg, is
// byte-for-byte the entry PolicyContext put in base.
func assertRunObligationMatches(t *testing.T, base *Report, f Factory, cfg Config) {
	t.Helper()
	for _, want := range base.Results {
		got := RunObligation(context.Background(), want.ID, f, cfg)
		one := func(r Result) string {
			return reportBytes(t, &Report{Policy: base.Policy, Universe: base.Universe, Results: []Result{r}})
		}
		if one(got) != one(want) {
			t.Errorf("%s %s (sequential=%v parallelism=%d): RunObligation\n%s\nvs full report entry\n%s",
				base.Policy, want.ID, cfg.Sequential, cfg.Parallelism, one(got), one(want))
		}
	}
}

func TestShardedDeterminismAcrossParallelism(t *testing.T) {
	// The sharded driver's contract: Sequential and every parallel level
	// produce byte-identical reports — same verdicts, same counters,
	// same witnesses — for proved and refuted policies alike.
	for _, tc := range []struct {
		name string
		f    Factory
	}{
		{"delta2", delta2Factory},
		{"greedy-buggy", greedyFactory},
	} {
		base, err := PolicyContext(context.Background(), tc.name, tc.f,
			Config{Universe: smallUniverse(), Sequential: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		assertRunObligationMatches(t, base, tc.f, Config{Universe: smallUniverse(), Sequential: true})
		assertRunObligationMatches(t, base, tc.f, Config{Universe: smallUniverse(), Parallelism: 3})
		for _, par := range []int{1, 2, 4, 8} {
			rep, err := PolicyContext(context.Background(), tc.name, tc.f,
				Config{Universe: smallUniverse(), Parallelism: par})
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", tc.name, par, err)
			}
			if !reflect.DeepEqual(rep.Results, base.Results) {
				t.Errorf("%s parallel=%d: results diverged from sequential:\n%s\nvs\n%s",
					tc.name, par, rep, base)
			}
			for i := range rep.Results {
				if rep.Results[i].Witness != base.Results[i].Witness {
					t.Errorf("%s parallel=%d %s: witness %q != sequential %q",
						tc.name, par, rep.Results[i].ID, rep.Results[i].Witness, base.Results[i].Witness)
				}
			}
		}
	}
}

func rescueFactory() sched.Policy { return registered("delta2-rescue") }

// faultUniverse extends the small fixture with the fault dimension.
func faultUniverse() statespace.Universe {
	u := smallUniverse()
	u.MaxFaults = 1
	return u
}

func TestNoTaskLostRefutesRescueless(t *testing.T) {
	r := check(ObNoTaskLost, delta2Factory, faultUniverse())
	if r.Passed {
		t.Fatal("delta2 (no rescue rule) passed no-task-lost under faults")
	}
	if !strings.Contains(r.Witness, "never re-homed") {
		t.Errorf("witness %q does not explain the stranded task", r.Witness)
	}
}

func TestNoTaskLostProvesRescue(t *testing.T) {
	r := check(ObNoTaskLost, rescueFactory, faultUniverse())
	if !r.Passed {
		t.Fatalf("delta2-rescue failed no-task-lost: %s", r.Witness)
	}
}

func TestCheckersAllocateNothingPerState(t *testing.T) {
	// A state costs the checkers nothing it does not keep: the compiled
	// policy is shared, and every scratch slice, map and machine is the
	// worker's. The allocations of two universes differ by per-state cost
	// only: they have the same cores and bounds, so the setup — the
	// worker's buffers grown to the largest state, the shards' closures —
	// is the same in both, and the second one's task weights multiply its
	// states.
	small := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1}
	large := small
	large.Weights = []int64{sched.DefaultWeight, 2 * sched.DefaultWeight}
	for _, id := range []ObligationID{ObLemma1, ObStealSoundness, ObPotentialDecrease, ObNoTaskLost} {
		measure := func(u statespace.Universe) (states int, allocs float64) {
			cfg := Config{Universe: u, Sequential: true}
			var r Result
			allocs = testing.AllocsPerRun(3, func() { r = RunObligation(context.Background(), id, rescueFactory, cfg) })
			if !r.Passed {
				t.Fatalf("%s: delta2-rescue failed: %s", id, r.Witness)
			}
			return r.StatesChecked, allocs
		}
		s0, a0 := measure(small)
		s1, a1 := measure(large)
		perState := (a1 - a0) / float64(s1-s0)
		t.Logf("%s: %d → %d states, %.0f → %.0f objects: %.4f per additional state", id, s0, s1, a0, a1, perState)
		if perState > 0.1 {
			t.Errorf("%s allocates %.3f objects per additional state, want at most 0.1", id, perState)
		}
	}
}

func TestDegradedWastedCoresRefutesRescueless(t *testing.T) {
	r := check(ObDegradedWastedCores, delta2Factory, faultUniverse())
	if r.Passed {
		t.Fatal("delta2 (no rescue rule) passed degraded-wasted-cores under faults")
	}
}

func TestDegradedWastedCoresProvesRescue(t *testing.T) {
	r := check(ObDegradedWastedCores, rescueFactory, faultUniverse())
	if !r.Passed {
		t.Fatalf("delta2-rescue failed degraded-wasted-cores: %s", r.Witness)
	}
}

func TestShardedDeterminismAcrossParallelismWithFaults(t *testing.T) {
	// The PR 2 determinism contract extended to the fault dimension:
	// sequential and every parallel level must produce byte-identical
	// reports over a fault-extended universe, for the proved
	// (delta2-rescue) and refuted (delta2, stranded orphans) sides alike.
	for _, tc := range []struct {
		name string
		f    Factory
	}{
		{"delta2", delta2Factory},
		{"delta2-rescue", rescueFactory},
	} {
		base, err := PolicyContext(context.Background(), tc.name, tc.f,
			Config{Universe: faultUniverse(), Sequential: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		assertRunObligationMatches(t, base, tc.f, Config{Universe: faultUniverse(), Sequential: true})
		assertRunObligationMatches(t, base, tc.f, Config{Universe: faultUniverse(), Parallelism: 3})
		for _, par := range []int{1, 2, 4, 8} {
			rep, err := PolicyContext(context.Background(), tc.name, tc.f,
				Config{Universe: faultUniverse(), Parallelism: par})
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", tc.name, par, err)
			}
			if !reflect.DeepEqual(rep.Results, base.Results) {
				t.Errorf("%s parallel=%d: results diverged from sequential:\n%s\nvs\n%s",
					tc.name, par, rep, base)
			}
		}
	}
}

func TestFaultObligationsVacuousOnHealthyUniverse(t *testing.T) {
	// With MaxFaults 0 every state is healthy, so both fault obligations
	// are vacuously proved even for rescue-less policies — the fault
	// dimension is opt-in and cannot refute a legacy run.
	for _, id := range []ObligationID{ObNoTaskLost, ObDegradedWastedCores} {
		r := check(id, delta2Factory, smallUniverse())
		if !r.Passed {
			t.Errorf("%s refuted on a healthy universe: %s", r.ID, r.Witness)
		}
	}
}

func TestShardedWitnessMatchesWholeUniverseScan(t *testing.T) {
	// The merged witness must be the one a single sequential scan of the
	// whole universe finds first (lowest enumeration rank), not whichever
	// shard happened to refute: re-derive greedy-buggy's first
	// potential-decrease violation by brute force and compare.
	u := smallUniverse()
	var want string
	u.Enumerate(func(m *sched.Machine) bool {
		p := greedyFactory()
		beginRound(p, m)
		for ti := range m.Cores {
			for si := range m.Cores {
				if ti == si || !p.CanSteal(m.Core(ti), m.Core(si)) {
					continue
				}
				trial := m.Clone()
				pt := greedyFactory()
				beginRound(pt, trial)
				before := sched.PairwiseImbalance(pt, trial)
				att := sched.Attempt{Thief: ti, Victim: si}
				sched.Steal(pt, trial, &att)
				if !att.Succeeded() {
					continue
				}
				if after := sched.PairwiseImbalance(pt, trial); after >= before {
					want = fmt.Sprintf(
						"state %v: steal c%d<-c%d left potential %d -> %d (no strict decrease)",
						m.Loads(), ti, si, before, after)
					return false
				}
			}
		}
		return true
	})
	if want == "" {
		t.Fatal("brute force found no violation — fixture broken")
	}
	r := check(ObPotentialDecrease, greedyFactory, u)
	if r.Passed {
		t.Fatal("greedy-buggy passed potential decrease")
	}
	if r.Witness != want {
		t.Errorf("sharded witness %q, whole-universe first witness %q", r.Witness, want)
	}
}

// cancelOnSteal is delta2 with a cancellation wired into its steal
// phase: every steal it sizes cancels the context.
type cancelOnSteal struct {
	*policy.Delta2
	cancel context.CancelFunc
}

func (p cancelOnSteal) StealCount(thief, victim *sched.Core) int {
	p.cancel()
	return p.Delta2.StealCount(thief, victim)
}

func TestFailureImpliesSuccessCancelsMidState(t *testing.T) {
	// The per-order ctx poll. Shard 6 of this universe opens on six idle
	// cores beside a 6-thread core, [0 0 0 0 0 0 6]: six attempting cores,
	// 6! = 720 walked orders, each standing for 7!/6! = 7 schedules. The
	// first order's first steal cancels, so the walk must stop at its
	// next poll, within a stride or two of walked orders, and inside the
	// first state; polling per state would walk all 720 orders and the
	// 63 states after them.
	u := statespace.Universe{Cores: 7, MaxPerCore: 6, MaxTotal: 6}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := cancelOnSteal{policy.NewDelta2(), cancel}
	r := runTask(ctx, ObFailureImpliesSucc, func() sched.Policy { return p }, u, 6, new(shardScratch))
	if !r.Aborted || r.StatesChecked != 1 {
		t.Fatalf("want an abort inside the first state: %+v", r)
	}
	const weight = 7
	if walked, limit := r.SchedulesChecked/weight, 2*64; walked > limit {
		t.Errorf("aborted check still walked %d orders (limit %d)", walked, limit)
	}
}

func TestGameCheckersAbortLikeEveryChecker(t *testing.T) {
	// A cancellation that lands inside a game's exploration must read
	// exactly as one caught by the shard loop: no start state in front
	// of "aborted:". The factory cancels once the game is under way, so
	// the explorer's own poll is the one that fires.
	u := statespace.Universe{Cores: 4, MaxPerCore: 3}
	for _, id := range []ObligationID{ObWorkConservConc, ObChoiceIndependence, ObReactivity} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		f := func() sched.Policy {
			if calls.Add(1) == 2 {
				cancel()
			}
			return policy.NewDelta2()
		}
		r := RunObligation(ctx, id, f, Config{Universe: u, Sequential: true})
		if !r.Aborted || r.Witness != "aborted: context canceled" {
			t.Errorf("%s: aborted=%v witness %q, want %q", id, r.Aborted, r.Witness, "aborted: context canceled")
		}
	}
}

func TestRevalidationAblationCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := CheckRevalidationAblation(ctx, delta2Factory,
		statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true})
	if !res.Aborted {
		t.Error("cancelled ablation not marked aborted")
	}
	if limit := shardCount * 128; res.SchedulesChecked > limit {
		t.Errorf("cancelled ablation still ran %d schedules (limit %d)", res.SchedulesChecked, limit)
	}
}

// bothModes are the driver's two ways through its one task list.
var bothModes = []struct {
	name string
	cfg  Config
}{
	{"sequential", Config{Sequential: true}},
	{"pooled", Config{Parallelism: 4}},
}

func TestEveryObligationAbortsOnCancelledContext(t *testing.T) {
	// The shard loop polls before the first state, so a context that is
	// already cancelled must cost no state — for every obligation, not
	// only the ones with a schedule-level poll of their own.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range bothModes {
		cfg := mode.cfg
		cfg.Universe = faultUniverse()
		for _, id := range AllObligations() {
			r := RunObligation(ctx, id, delta2Factory, cfg)
			if !r.Aborted || r.Passed || r.StatesChecked != 0 || r.Witness != "aborted: context canceled" {
				t.Errorf("%s %s: %+v, want an aborted result over zero states", mode.name, id, r)
			}
		}
		rep, err := PolicyContext(ctx, "delta2", delta2Factory, cfg)
		if err != context.Canceled || len(rep.Aborted()) != len(AllObligations()) {
			t.Errorf("%s: full report err=%v aborted=%v", mode.name, err, rep.Aborted())
		}
	}
}

func TestEveryObligationContainsCheckerPanics(t *testing.T) {
	// A crashing policy (or checker) must become an ABORTED obligation,
	// never a crashed process: pooled shards run on goroutines nothing
	// else could recover. The fault universe makes every obligation
	// reach the factory.
	boom := func() sched.Policy { panic("boom") }
	for _, mode := range bothModes {
		cfg := mode.cfg
		cfg.Universe = faultUniverse()
		for _, id := range AllObligations() {
			r := RunObligation(context.Background(), id, boom, cfg)
			if !r.Aborted || r.Passed || r.Witness != "aborted: checker panic: boom" {
				t.Errorf("%s %s: %+v, want a contained panic", mode.name, id, r)
			}
		}
	}
}

func TestReportBytesIndependentOfGOMAXPROCS(t *testing.T) {
	// The shard partition is a constant, not a function of the host: the
	// game explorers' memo is shard-local, so a partition that followed
	// GOMAXPROCS made schedules_checked (7584 vs 7632 on this universe)
	// differ between a laptop and a 12-CPU server — and a memo written
	// on one replay bytes the other would never print.
	u := statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 5, IncludeUnscheduled: true}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name string
		f    Factory
	}{
		{"delta2", delta2Factory},
		{"greedy-buggy", greedyFactory},
	} {
		var at2 string
		for _, procs := range []int{2, 12} {
			runtime.GOMAXPROCS(procs)
			rep, err := PolicyContext(context.Background(), tc.name, tc.f, Config{Universe: u})
			if err != nil {
				t.Fatal(err)
			}
			if procs == 2 {
				at2 = reportBytes(t, rep)
			} else if got := reportBytes(t, rep); got != at2 {
				t.Errorf("%s: report at GOMAXPROCS=12 differs from GOMAXPROCS=2:\n%s\nvs\n%s", tc.name, got, at2)
			}
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: ObLemma1, Passed: true, StatesChecked: 10}
	if !strings.Contains(r.String(), "PASS") {
		t.Errorf("String = %q", r.String())
	}
	r2 := Result{ID: ObWorkConservConc, Passed: false, Witness: "w", StatesChecked: 5, SchedulesChecked: 30, Bound: 4}
	s := r2.String()
	for _, frag := range []string{"FAIL", "schedules=30", "worst-N=4", "witness: w"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
}

func TestForEachTaskRunsEachIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, n, n + 3} {
		ran := make([]atomic.Int32, n)
		held := make([]atomic.Int32, min(workers, n)) // calls running as each worker
		var running, peak atomic.Int32
		forEachTask(n, workers, func(w, i int) {
			if w < 0 || w >= len(held) {
				t.Errorf("workers=%d: index %d ran as worker %d, want [0, %d)", workers, i, w, len(held))
				return
			}
			if held[w].Add(1) != 1 {
				t.Errorf("workers=%d: two concurrent calls ran as worker %d", workers, w)
			}
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			ran[i].Add(1)
			runtime.Gosched() // let the other claimants at the counter
			running.Add(-1)
			held[w].Add(-1)
		})
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want once", workers, i, got)
			}
		}
		if got := int(peak.Load()); got > min(workers, n) {
			t.Errorf("workers=%d: %d calls ran at once", workers, got)
		}
	}
	forEachTask(0, 4, func(int, int) { t.Error("ran a task of an empty list") })
}

// One fan-out over any set of obligations yields, per obligation, the
// Result that obligation yields alone — what lets the daemon run a job's
// memo misses together and splice memoized Results between them.
func TestFanOutOfASubsetEqualsItsObligationsAlone(t *testing.T) {
	subset := []ObligationID{ObDegradedWastedCores, ObLemma1, ObWorkConservConc, ObNoTaskLost}
	for _, f := range []Factory{delta2Factory, greedyFactory} {
		cfg := Config{Universe: faultUniverse(), Obligations: subset, Parallelism: 3}
		rep, err := PolicyContext(context.Background(), "p", f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range subset {
			if alone := RunObligation(context.Background(), id, f, Config{Universe: cfg.Universe, Sequential: true}); !reflect.DeepEqual(rep.Results[i], alone) {
				t.Errorf("%s in a fan-out of %d: %+v, alone: %+v", id, len(subset), rep.Results[i], alone)
			}
		}
	}
}

// Shard time travels beside the report, never in it.
func TestElapsedIsNotPartOfTheReport(t *testing.T) {
	rep, err := PolicyContext(context.Background(), "delta2", delta2Factory, Config{Universe: smallUniverse()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Elapsed) != len(rep.Results) {
		t.Fatalf("%d elapsed times for %d results", len(rep.Elapsed), len(rep.Results))
	}
	for i, d := range rep.Elapsed {
		if d <= 0 {
			t.Errorf("%s: elapsed %v, want the summed time of its shards", rep.Results[i].ID, d)
		}
	}
	timed := reportBytes(t, rep)
	if strings.Contains(strings.ToLower(timed), "elapsed") {
		t.Errorf("shard time reached the report bytes:\n%s", timed)
	}
	back, err := ReportFromJSON([]byte(timed))
	if err != nil {
		t.Fatal(err)
	}
	if back.Elapsed != nil {
		t.Errorf("decoded report carries elapsed times %v", back.Elapsed)
	}
	rep.Elapsed = nil
	if bare := reportBytes(t, rep); bare != timed {
		t.Errorf("report bytes depend on Elapsed:\n%s\nvs\n%s", timed, bare)
	}
}
