package verify

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
)

// Metamorphic relations: what one report implies about another on a
// related input, whatever either report's bytes are. They hold of any
// correct checker, so they gate a change to how the verifier explores —
// one graph instead of many, a different walk — without a second
// verifier to compare against.

// registeredFactory is the named policy's factory.
func registeredFactory(t *testing.T, name string) Factory {
	t.Helper()
	spec, ok := policy.Lookup(name)
	if !ok {
		t.Fatalf("policy %q is not registered", name)
	}
	return func() sched.Policy { return spec.New(nil) }
}

// report is f's full report over u at the given parallelism.
func report(t *testing.T, f Factory, cfg Config) *Report {
	t.Helper()
	rep, err := PolicyContext(context.Background(), "p", f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Universe growth: a universe's states are a subset of a larger one's,
// so on the larger one a refuted obligation stays refuted, a passed
// row's count of states does not shrink, and nor does the bound of a row
// that passes there (a refuted row's bound covers only the states its
// shards scanned up to their refutations).
func TestRelationUniverseGrowth(t *testing.T) {
	chains := [][]statespace.Universe{
		{
			{Cores: 3, MaxPerCore: 2, MaxTotal: 3},
			{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true},
			{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true},
			{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1},
		},
		{
			{Cores: 4, MaxPerCore: 2, MaxTotal: 3, Groups: []int{0, 0, 1, 1}},
			{Cores: 4, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}},
		},
	}
	for _, name := range []string{"delta2", "greedy-buggy", "weighted", "cfs-group-buggy", "delta2-rescue", "null"} {
		f := registeredFactory(t, name)
		for _, chain := range chains {
			reps := make([]*Report, len(chain))
			for i, u := range chain {
				reps[i] = report(t, f, Config{Universe: u, Parallelism: 2})
			}
			for i := range chain {
				for j := i + 1; j < len(chain); j++ {
					for k, small := range reps[i].Results {
						large := reps[j].Results[k]
						switch {
						case !small.Passed && !small.Aborted && large.Passed:
							t.Errorf("%s %s: refuted on %v, proved on %v", name, small.ID, chain[i], chain[j])
						case large.Passed && large.Bound < small.Bound:
							t.Errorf("%s %s: bound %d on %v, %d on %v", name, small.ID, small.Bound, chain[i], large.Bound, chain[j])
						case small.Passed && large.Passed && large.StatesChecked < small.StatesChecked:
							t.Errorf("%s %s: %d states on %v, %d on %v", name, small.ID, small.StatesChecked, chain[i], large.StatesChecked, chain[j])
						}
					}
				}
			}
		}
	}
}

// Subset: one fan-out over any set of obligations yields, per
// obligation, the Result that obligation yields alone — what lets the
// daemon run a job's memo misses together and splice memoized Results
// between them. The table holds every subset of the four rows that share
// the call's game graph, at Parallelism 1, 2 and 8, and a mixed subset
// of per-state and graph rows on the fault universe.
func TestRelationSubset(t *testing.T) {
	type subset struct {
		ids []ObligationID
		par []int
	}
	var subsets []subset
	for mask := 1; mask < 1<<len(graphRows); mask++ {
		var ids []ObligationID
		for i, id := range graphRows {
			if mask&(1<<i) != 0 {
				ids = append(ids, id)
			}
		}
		subsets = append(subsets, subset{ids, []int{1, 2, 8}})
	}
	subsets = append(subsets, subset{[]ObligationID{ObDegradedWastedCores, ObLemma1, ObWorkConservConc, ObNoTaskLost}, []int{3}})
	for _, f := range []Factory{delta2Factory, greedyFactory} {
		u := faultUniverse()
		alone := map[ObligationID]Result{}
		for _, id := range AllObligations() {
			alone[id] = RunObligation(context.Background(), id, f, Config{Universe: u, Sequential: true})
		}
		for _, s := range subsets {
			for _, par := range s.par {
				rep := report(t, f, Config{Universe: u, Obligations: s.ids, Parallelism: par})
				for i, id := range s.ids {
					if !reflect.DeepEqual(rep.Results[i], alone[id]) {
						t.Errorf("%s in a fan-out of %v at parallelism %d: %+v, alone: %+v", id, s.ids, par, rep.Results[i], alone[id])
					}
				}
			}
		}
	}
}

// Fault dimension: a row that does not quantify over faults reports the
// same Result whatever the universe's MaxFaults.
func TestRelationFaultDimension(t *testing.T) {
	for _, name := range []string{"delta2", "greedy-buggy", "delta2-rescue"} {
		f := registeredFactory(t, name)
		for _, u := range []statespace.Universe{
			{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true},
			{Cores: 4, MaxPerCore: 2, MaxTotal: 3, IncludeUnscheduled: true},
		} {
			healthy := report(t, f, Config{Universe: u, Parallelism: 2})
			for _, k := range []int{1, 2} {
				faulty := u
				faulty.MaxFaults = k
				rep := report(t, f, Config{Universe: faulty, Parallelism: 2})
				for i, r := range rep.Results {
					if !row(r.ID).faults && !reflect.DeepEqual(r, healthy.Results[i]) {
						t.Errorf("%s %s at MaxFaults %d: %+v, at 0: %+v", name, r.ID, k, r, healthy.Results[i])
					}
				}
			}
		}
	}
}
