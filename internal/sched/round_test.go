package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// delta2 is Listing 1's balancer, defined locally to keep the sched
// package independent of internal/policy (which imports sched).
func delta2() Policy {
	load := func(c *Core) int64 { return int64(c.NThreads()) }
	return &FuncPolicy{
		PolicyName: "delta2-test",
		LoadFn:     load,
		FilterFn: func(thief, stealee *Core) bool {
			return load(stealee)-load(thief) >= 2
		},
	}
}

// greedyBuggy is the §4.3 counterexample filter: steal from anyone with
// two or more threads, regardless of own load.
func greedyBuggy() Policy {
	load := func(c *Core) int64 { return int64(c.NThreads()) }
	return &FuncPolicy{
		PolicyName: "greedy-buggy-test",
		LoadFn:     load,
		FilterFn: func(_, stealee *Core) bool {
			return load(stealee) >= 2
		},
	}
}

func TestSelectFiltersAndChooses(t *testing.T) {
	m := MachineFromLoads(0, 1, 3, 4)
	att := Select(delta2(), m, 0)
	if att.Victim < 0 {
		t.Fatalf("expected a victim, got %+v", att)
	}
	// Cores 2 (load 3) and 3 (load 4) pass the filter; ChooseFirst picks 2.
	if len(att.Candidates) != 2 || att.Candidates[0] != 2 || att.Candidates[1] != 3 {
		t.Errorf("Candidates = %v, want [2 3]", att.Candidates)
	}
	if att.Victim != 2 {
		t.Errorf("Victim = %d, want 2", att.Victim)
	}
}

func TestSelectNoCandidate(t *testing.T) {
	m := MachineFromLoads(1, 1, 1)
	att := Select(delta2(), m, 0)
	if att.Reason != FailNoCandidate || att.Victim != -1 {
		t.Errorf("attempt = %+v, want no-candidate", att)
	}
}

func TestSelectNeverPicksSelf(t *testing.T) {
	m := MachineFromLoads(5, 0)
	att := Select(greedyBuggy(), m, 0)
	for _, c := range att.Candidates {
		if c == 0 {
			t.Error("core selected itself as a steal candidate")
		}
	}
}

func TestSelectIsReadOnly(t *testing.T) {
	m := MachineFromLoads(0, 3)
	key := m.Key()
	Select(delta2(), m, 0)
	if m.Key() != key {
		t.Error("Select mutated the machine")
	}
}

func TestSelectPanicsOnEscapingChoose(t *testing.T) {
	rogue := &FuncPolicy{
		PolicyName: "rogue",
		LoadFn:     func(c *Core) int64 { return int64(c.NThreads()) },
		FilterFn:   func(thief, stealee *Core) bool { return stealee.NThreads() >= 2 },
		ChooseFn: func(thief *Core, _ []*Core) *Core {
			return thief // not among candidates: contract violation
		},
	}
	m := MachineFromLoads(0, 2)
	defer func() {
		if recover() == nil {
			t.Error("Choose escaping its candidate set did not panic")
		}
	}()
	Select(rogue, m, 0)
}

func TestStealMovesOneTask(t *testing.T) {
	m := MachineFromLoads(0, 3)
	p := delta2()
	att := Select(p, m, 0)
	Steal(p, m, &att)
	if !att.Succeeded() || att.Moved != 1 {
		t.Fatalf("attempt = %+v, want one task moved", att)
	}
	if got := m.Loads(); got[0] != 1 || got[1] != 2 {
		t.Errorf("Loads = %v, want [1 2]", got)
	}
	if len(att.MovedTasks) != 1 {
		t.Errorf("MovedTasks = %v", att.MovedTasks)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate after steal: %v", err)
	}
}

func TestStealRevalidationFailure(t *testing.T) {
	p := delta2()
	m := MachineFromLoads(0, 3)
	att := Select(p, m, 0)
	// Simulate a concurrent steal draining the victim before our steal.
	victim := m.Core(att.Victim)
	for victim.NThreads() > 1 {
		victim.PopTail()
	}
	Steal(p, m, &att)
	if att.Reason != FailRevalidation {
		t.Errorf("Reason = %v, want revalidation-failed", att.Reason)
	}
	if att.Moved != 0 {
		t.Errorf("Moved = %d, want 0", att.Moved)
	}
}

func TestStealNeverTakesCurrentTask(t *testing.T) {
	// Victim runs one task and queues one: only the queued one can move.
	m := MachineFromLoads(0, 2)
	p := delta2()
	runningID := m.Core(1).Current.ID
	att := Select(p, m, 0)
	Steal(p, m, &att)
	if !att.Succeeded() {
		t.Fatalf("steal failed: %+v", att)
	}
	if m.Core(1).Current == nil || m.Core(1).Current.ID != runningID {
		t.Error("steal disturbed the victim's current task")
	}
}

func TestStealEmptyVictimReported(t *testing.T) {
	// A filter that passes a core whose only thread is running: the steal
	// finds nothing stealable and must report FailEmptyVictim, not panic.
	bad := &FuncPolicy{
		PolicyName: "steal-running",
		LoadFn:     func(c *Core) int64 { return int64(c.NThreads()) },
		FilterFn:   func(thief, stealee *Core) bool { return stealee.NThreads() >= 1 && thief.NThreads() == 0 },
	}
	m := MachineFromLoads(0, 1)
	att := Select(bad, m, 0)
	Steal(bad, m, &att)
	if att.Reason != FailEmptyVictim {
		t.Errorf("Reason = %v, want empty-victim", att.Reason)
	}
}

func TestStealClampsCount(t *testing.T) {
	greedyCount := &FuncPolicy{
		PolicyName: "greedy-count",
		LoadFn:     func(c *Core) int64 { return int64(c.NThreads()) },
		FilterFn:   func(thief, stealee *Core) bool { return stealee.NThreads()-thief.NThreads() >= 2 },
		CountFn:    func(_, _ *Core) int { return 100 },
	}
	m := MachineFromLoads(0, 3)
	att := Select(greedyCount, m, 0)
	Steal(greedyCount, m, &att)
	if att.Moved != 2 { // only 2 queued tasks exist
		t.Errorf("Moved = %d, want 2 (clamped)", att.Moved)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestStealNonPositiveCountIsFailure(t *testing.T) {
	zeroCount := &FuncPolicy{
		PolicyName: "zero-count",
		LoadFn:     func(c *Core) int64 { return int64(c.NThreads()) },
		FilterFn:   func(thief, stealee *Core) bool { return stealee.NThreads()-thief.NThreads() >= 2 },
		CountFn:    func(_, _ *Core) int { return 0 },
	}
	m := MachineFromLoads(0, 2)
	att := Select(zeroCount, m, 0)
	Steal(zeroCount, m, &att)
	if att.Succeeded() {
		t.Error("zero-count steal should not succeed")
	}
}

func TestSequentialRoundBalances(t *testing.T) {
	p := delta2()
	m := MachineFromLoads(0, 4)
	rounds := 0
	for !m.WorkConserved() {
		res := SequentialRound(p, m)
		rounds++
		if res.TasksMoved() == 0 {
			t.Fatalf("stuck at %v after %d rounds", m.Loads(), rounds)
		}
		if rounds > 10 {
			t.Fatalf("no convergence after %d rounds: %v", rounds, m.Loads())
		}
	}
	if got := m.Loads(); got[0]+got[1] != 4 {
		t.Errorf("threads not conserved: %v", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSequentialRoundNoFailures(t *testing.T) {
	// §4.2: in the sequential setting, selections are never stale, so no
	// attempt can fail re-validation.
	p := delta2()
	m := MachineFromLoads(0, 5, 0, 3, 1)
	for i := 0; i < 10; i++ {
		res := SequentialRound(p, m)
		for _, att := range res.Attempts {
			if att.Reason == FailRevalidation {
				t.Fatalf("sequential round produced a stale failure: %+v", att)
			}
		}
	}
}

func TestConcurrentRoundConflict(t *testing.T) {
	// The paper's conflict scenario: two idle cores both select the same
	// overloaded core holding exactly one stealable task; whoever steals
	// second must fail re-validation and the failure must be explained by
	// the predecessor's success.
	p := delta2()
	m := MachineFromLoads(0, 0, 2)
	res := ConcurrentRound(p, m, []int{0, 1, 2})
	succ, fail := 0, 0
	for _, att := range res.Attempts {
		switch {
		case att.Succeeded():
			succ++
		case att.Reason == FailRevalidation:
			fail++
			if !att.PredecessorSuccess {
				t.Errorf("failed attempt %+v lacks a predecessor success", att)
			}
		}
	}
	if succ != 1 || fail != 1 {
		t.Errorf("successes=%d failures=%d, want 1/1", succ, fail)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestConcurrentRoundOrderMatters(t *testing.T) {
	p := delta2()
	for _, order := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}, {2, 1, 0}} {
		m := MachineFromLoads(0, 0, 2)
		ConcurrentRound(p, m, order)
		// Whatever the order, exactly one task moves and the machine
		// stays valid and conserved in total.
		if m.TotalThreads() != 2 {
			t.Errorf("order %v: threads not conserved: %v", order, m.Loads())
		}
		if err := m.Validate(); err != nil {
			t.Errorf("order %v: %v", order, err)
		}
	}
}

func TestConcurrentRoundBadOrderPanics(t *testing.T) {
	p := delta2()
	m := MachineFromLoads(0, 2)
	for _, order := range [][]int{{0}, {0, 0}, {0, 5}, {0, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v did not panic", order)
				}
			}()
			ConcurrentRound(p, m.Clone(), order)
		}()
	}
}

func TestIdentityOrder(t *testing.T) {
	o := IdentityOrder(4)
	for i, v := range o {
		if v != i {
			t.Fatalf("IdentityOrder[%d] = %d", i, v)
		}
	}
}

func TestFailureReasonString(t *testing.T) {
	cases := map[FailureReason]string{
		FailNone:          "ok",
		FailNoCandidate:   "no-candidate",
		FailRevalidation:  "revalidation-failed",
		FailEmptyVictim:   "empty-victim",
		FailureReason(42): "FailureReason(42)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestRoundResultCounters(t *testing.T) {
	res := RoundResult{Attempts: []Attempt{
		{Reason: FailNone, Moved: 2},
		{Reason: FailRevalidation},
		{Reason: FailNoCandidate},
		{Reason: FailEmptyVictim},
		{Reason: FailNone, Moved: 1},
	}}
	if got := res.Successes(); got != 2 {
		t.Errorf("Successes = %d, want 2", got)
	}
	if got := res.TasksMoved(); got != 3 {
		t.Errorf("TasksMoved = %d, want 3", got)
	}
}

// TestCountersMatchAttemptReasons pins the one failed-steal rule: over
// random machines and orders, counting a round of any executor gives one
// round, the attempts' moved tasks as steals and their FailRevalidation
// and FailEmptyVictim outcomes as failed steals.
func TestCountersMatchAttemptReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	executors := map[string]func(Policy, *Machine, []int) RoundResult{
		"sequential": func(p Policy, m *Machine, _ []int) RoundResult { return SequentialRound(p, m) },
		"concurrent": ConcurrentRound,
		"unsafe":     UnsafeConcurrentRound,
	}
	seen := map[FailureReason]int{}
	for i := 0; i < 300; i++ {
		loads := make([]int, 2+rng.Intn(5))
		for j := range loads {
			loads[j] = rng.Intn(5)
		}
		order := rng.Perm(len(loads))
		for name, run := range executors {
			for _, p := range []Policy{delta2(), greedyBuggy()} {
				rr := run(p, MachineFromLoads(loads...), order)
				want := Counters{Rounds: 1}
				for _, att := range rr.Attempts {
					seen[att.Reason]++
					want.Steals += int64(att.Moved)
					if att.Reason == FailRevalidation || att.Reason == FailEmptyVictim {
						want.StealFails++
					}
				}
				var got Counters
				got.CountRound(rr)
				if got != want {
					t.Fatalf("%s/%s on %v order %v: counted %+v, want %+v", name, p.Name(), loads, order, got, want)
				}
			}
		}
	}
	for _, r := range []FailureReason{FailNone, FailNoCandidate, FailRevalidation, FailEmptyVictim} {
		if seen[r] == 0 {
			t.Errorf("no attempt ended %v: the corpus does not exercise the rule", r)
		}
	}
}

// Property: rounds conserve the thread population and structural validity
// for arbitrary initial load vectors, in both execution modes.
func TestRoundConservationProperty(t *testing.T) {
	p := delta2()
	f := func(raw []uint8, seqMode bool) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 6 {
			raw = raw[:6]
		}
		loads := make([]int, len(raw))
		total := 0
		for i, r := range raw {
			loads[i] = int(r % 5)
			total += loads[i]
		}
		m := MachineFromLoads(loads...)
		if seqMode {
			SequentialRound(p, m)
		} else {
			ConcurrentRound(p, m, IdentityOrder(len(loads)))
		}
		return m.TotalThreads() == total && m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every revalidation failure in a concurrent round is explained
// by a predecessor success (the §4.3 failure⇒success obligation) for the
// sound Delta2 filter.
func TestFailureImpliesSuccessProperty(t *testing.T) {
	p := delta2()
	f := func(raw []uint8, seed uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 5 {
			raw = raw[:5]
		}
		loads := make([]int, len(raw))
		for i, r := range raw {
			loads[i] = int(r % 4)
		}
		m := MachineFromLoads(loads...)
		// Derive a permutation from the seed by rotation.
		n := len(loads)
		order := make([]int, n)
		for i := range order {
			order[i] = (i + int(seed)) % n
		}
		res := ConcurrentRound(p, m, order)
		for _, att := range res.Attempts {
			if att.Reason == FailRevalidation && !att.PredecessorSuccess {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
