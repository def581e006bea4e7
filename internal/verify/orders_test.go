package verify

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
)

// fullOrders is the walk stealOrders replaced: every one of the n! steal
// orders of an n-core machine, each standing for itself.
func fullOrders(n int, fn func(order []int) bool) bool {
	return statespace.Permutations(make([]int, n), make([]int, n), fn)
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// orderUniverses are the universes the class walk is checked against the
// full walk on: the four of the golden table, the default universe under
// two-event fault scripts, and a 5-core one wide enough for 120 orders.
func orderUniverses() []statespace.Universe {
	faults := DefaultUniverse()
	faults.MaxFaults = 2
	return []statespace.Universe{
		{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1},
		{Cores: 4, MaxPerCore: 2, MaxTotal: 3, IncludeUnscheduled: true},
		{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Weights: []int64{1, 3}},
		{Cores: 4, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}},
		faults,
		{Cores: 5, MaxPerCore: 2, MaxTotal: 6},
	}
}

// The class walk loses nothing the full n! walk checks, for stateless and
// stateful policies alike: per state, the successors of the walked orders
// weighted by their classes are the full walk's successors, counted with
// multiplicity; failure-implies-success reaches the same verdict (and,
// proved, the same schedule count); and the ablation counts the same
// schedules and the same violations.
func TestStealOrdersMatchFullWalk(t *testing.T) {
	for _, name := range []string{"delta2", "greedy-buggy", "cfs-group-buggy", "random-choice"} {
		spec, ok := policy.Lookup(name)
		if !ok {
			t.Fatalf("policy %q is not registered", name)
		}
		f := func() sched.Policy { return spec.New(nil) }
		for _, u := range orderUniverses() {
			assertSuccessorsMatch(t, name, f, u)
			assertFailureImpliesSuccessMatches(t, name, f, u)
			assertAblationMatches(t, name, f, u)
		}
	}
}

// assertSuccessorsMatch compares, state by state, the orderSuccessors
// multiset of successor keys the two walks give.
func assertSuccessorsMatch(t *testing.T, name string, f Factory, u statespace.Universe) {
	t.Helper()
	var perms permScratch
	next := new(sched.Machine)
	full, classes := map[string]int{}, map[string]int{}
	u.Enumerate(func(m *sched.Machine) bool {
		p := f()
		atts := sched.SelectAll(p, m)
		clear(full)
		clear(classes)
		fullOrders(m.NumCores(), func(order []int) bool {
			sched.ExecuteSteals(p, next.CopyFrom(m), atts, order)
			full[next.Key()]++
			return true
		})
		perms.stealOrders(atts, func(order []int, weight int) bool {
			sched.ExecuteSteals(p, next.CopyFrom(m), atts, order)
			classes[next.Key()] += weight
			return true
		})
		if !maps.Equal(full, classes) {
			t.Errorf("%s %v state %v: successors of the full walk %v, of the class walk %v", name, u, m.Loads(), full, classes)
			return false
		}
		return true
	})
}

// assertFailureImpliesSuccessMatches re-derives the obligation's verdict
// by the full walk.
func assertFailureImpliesSuccessMatches(t *testing.T, name string, f Factory, u statespace.Universe) {
	t.Helper()
	u.MaxFaults = 0 // the obligation ignores the fault dimension
	trial := new(sched.Machine)
	want, states := true, 0
	u.Enumerate(func(m *sched.Machine) bool {
		states++
		p := f()
		atts := sched.SelectAll(p, m)
		return fullOrders(m.NumCores(), func(order []int) bool {
			rr := sched.ExecuteSteals(p, trial.CopyFrom(m), atts, order)
			for _, att := range rr.Attempts {
				if att.Reason == sched.FailRevalidation && !att.PredecessorSuccess {
					want = false
				}
			}
			return want
		})
	})
	got := check(ObFailureImpliesSucc, f, u)
	if got.Passed != want {
		t.Errorf("%s %v: failure-implies-success passed=%v, the full walk says %v (%s)", name, u, got.Passed, want, got.Witness)
	}
	if schedules := states * factorial(u.Cores); want && got.SchedulesChecked != schedules {
		t.Errorf("%s %v: failure-implies-success counted %d schedules, the full walk %d", name, u, got.SchedulesChecked, schedules)
	}
}

// assertAblationMatches re-derives the ablation's counts by the full walk.
func assertAblationMatches(t *testing.T, name string, f Factory, u statespace.Universe) {
	t.Helper()
	u.MaxFaults = 0 // the ablation is a steady-state sweep
	trial := new(sched.Machine)
	var want AblationResult
	u.Enumerate(func(m *sched.Machine) bool {
		return fullOrders(m.NumCores(), func(order []int) bool {
			want.SchedulesChecked++
			sched.UnsafeConcurrentRound(f(), trial.CopyFrom(m), order)
			if roundViolation(f(), m, trial) != "" {
				want.SoundnessViolations++
			}
			p := f()
			beginRound(p, m)
			if sched.PairwiseImbalance(p, trial) > sched.PairwiseImbalance(p, m) {
				want.PotentialViolations++
			}
			return true
		})
	})
	got := CheckRevalidationAblation(context.Background(), f, u)
	if got.SchedulesChecked != want.SchedulesChecked || got.SoundnessViolations != want.SoundnessViolations ||
		got.PotentialViolations != want.PotentialViolations {
		t.Errorf("%s %v: ablation counted %d schedules, %d soundness and %d potential violations; the full walk %d, %d and %d",
			name, u, got.SchedulesChecked, got.SoundnessViolations, got.PotentialViolations,
			want.SchedulesChecked, want.SoundnessViolations, want.PotentialViolations)
	}
}

// For every attempting subset of up to 7 cores, the walk hands out k!
// distinct full orders — the attempting cores first, the no-op cores
// after them in ascending ID — whose weights sum to n!.
func TestStealOrdersWalkEveryClassOnce(t *testing.T) {
	var s permScratch
	for n := 1; n <= 7; n++ {
		atts := make([]sched.Attempt, n)
		for set := 0; set < 1<<n; set++ {
			var attempting, noop []int
			for id := range atts {
				atts[id] = sched.Attempt{Thief: id, Victim: -1}
				if set&(1<<id) != 0 {
					atts[id].Victim = (id + 1) % n
					attempting = append(attempting, id)
				} else {
					noop = append(noop, id)
				}
			}
			k := len(attempting)
			seen := map[string]bool{}
			sum := 0
			s.stealOrders(atts, func(order []int, weight int) bool {
				head := slices.Clone(order[:k])
				slices.Sort(head)
				if len(order) != n || !slices.Equal(head, attempting) || !slices.Equal(order[k:], noop) {
					t.Fatalf("n=%d attempting %v: order %v is not the attempting cores, then the no-op cores %v in order", n, attempting, order, noop)
				}
				key := fmt.Sprint(order)
				if seen[key] {
					t.Fatalf("n=%d attempting %v: order %v walked twice", n, attempting, order)
				}
				seen[key] = true
				sum += weight
				return true
			})
			if len(seen) != factorial(k) || sum != factorial(n) {
				t.Errorf("n=%d attempting %v: %d orders weighing %d, want %d weighing %d", n, attempting, len(seen), sum, factorial(k), factorial(n))
			}
		}
	}
}

// The widest universe Validate admits counts past an int: each of the 21
// states of one thread on 20 cores has no attempting core, so its one
// walked order stands for 20! schedules, and 21 × 20! > math.MaxInt. The
// count saturates instead of wrapping negative.
func TestScheduleCountSaturates(t *testing.T) {
	u := statespace.Universe{Cores: 20, MaxPerCore: 1, MaxTotal: 1}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	r := check(ObFailureImpliesSucc, delta2Factory, u)
	if !r.Passed || r.StatesChecked != 21 || r.SchedulesChecked != math.MaxInt {
		t.Errorf("20 cores: %+v, want 21 states proved and a saturated schedule count", r)
	}
}

// Once its scratch is sized, walking a state's steal orders allocates
// nothing: the orders, the attempting cores and the permutation state are
// all the scratch's.
func TestStealOrdersAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what escapes to the heap")
	}
	atts := make([]sched.Attempt, 7)
	for id := range atts {
		atts[id] = sched.Attempt{Thief: id, Victim: -1}
		if id < 5 {
			atts[id].Victim = 6
		}
	}
	var s permScratch
	walked := 0
	count := func([]int, int) bool { walked++; return true }
	s.stealOrders(atts, count)
	if walked != 120 {
		t.Fatalf("5 attempting cores of 7 walked %d orders, want 5! = 120", walked)
	}
	if allocs := testing.AllocsPerRun(10, func() { s.stealOrders(atts, count) }); allocs != 0 {
		t.Errorf("a sized walk allocates %.0f objects, want 0", allocs)
	}
}
