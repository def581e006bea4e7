package verify

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
)

// runTask is one (obligation, shard) task of PolicyContext's fan-out, on
// the given scratch.
func runTask(ctx context.Context, id ObligationID, f Factory, u statespace.Universe, s int, sc *shardScratch) Result {
	var res Result
	runShard(ctx, id, u, s, sc, &res, newStateCheck(ctx, id, f, DefaultMaxRounds, sc, &res))
	return res
}

// A worker's scratch carries nothing from one shard task to the next
// that a Result can see: every task run on one reused scratch yields the
// Result the same task yields on a fresh one. The sequence opens with a
// game cancelled mid-search, a game whose policy panics mid-path and a
// refuted game, each of which leaves the explorer mid-search, then
// changes the obligation, the policy and the universe's cores and fault
// dimension under the same scratch.
func TestReusedShardScratchIsInvisible(t *testing.T) {
	var reused shardScratch
	ctx, cancel := context.WithCancel(context.Background())
	var calls, panicCalls atomic.Int64
	cancelling := func() sched.Policy {
		if calls.Add(1) == 2 {
			cancel()
		}
		return policy.NewDelta2()
	}
	if r := runTask(ctx, ObWorkConservConc, cancelling, statespace.Universe{Cores: 4, MaxPerCore: 3}, 0, &reused); !r.Aborted {
		t.Fatalf("the opening game was not cut short: %+v", r)
	}
	panicking := func() sched.Policy {
		if panicCalls.Add(1) == 10 {
			panic("mid-game")
		}
		return policy.NewDelta2()
	}
	if r := runTask(context.Background(), ObWorkConservConc, panicking, DefaultUniverse(), 0, &reused); !r.Aborted {
		t.Fatalf("the second game did not panic: %+v", r)
	}
	fourCores := statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 3}
	steps := []struct {
		name string
		f    Factory
		u    statespace.Universe
		ids  []ObligationID
	}{
		{"greedy-buggy", greedyFactory, DefaultUniverse(), []ObligationID{ObWorkConservConc}},
		{"delta2-rescue", rescueFactory, faultUniverse(), []ObligationID{ObNoTaskLost, ObDegradedWastedCores}},
		{"delta2", delta2Factory, fourCores, AllObligations()},
		{"delta2", delta2Factory, DefaultUniverse(), []ObligationID{ObReactivity}},
	}
	refuted := 0
	for _, st := range steps {
		for _, id := range st.ids {
			for s := 0; s < shardCount; s++ {
				got := runTask(context.Background(), id, st.f, st.u, s, &reused)
				want := runTask(context.Background(), id, st.f, st.u, s, new(shardScratch))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s shard %d on a reused scratch:\n got %+v\nwant %+v", st.name, id, s, got, want)
				}
				if st.name == "greedy-buggy" && !got.Passed {
					refuted++
				}
			}
		}
	}
	if refuted == 0 {
		t.Fatal("greedy-buggy refuted no shard: the sequence never left the explorer mid-search")
	}
}

// Shard setup is the worker's, not the task's: once one obligation's
// tasks have grown a Sequential run's one scratch, the tasks of further
// obligations that allocate nothing per state add only their closures.
func TestShardSetupAllocatesOncePerWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what escapes to the heap")
	}
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true}
	measure := func(ids ...ObligationID) float64 {
		cfg := Config{Universe: u, Obligations: ids, Sequential: true}
		var rep *Report
		allocs := testing.AllocsPerRun(5, func() { rep, _ = PolicyContext(context.Background(), "delta2-rescue", rescueFactory, cfg) })
		for _, r := range rep.Results {
			if !r.Passed {
				t.Fatalf("%s: delta2-rescue failed: %s", r.ID, r.Witness)
			}
		}
		return allocs
	}
	one := measure(ObLemma1)
	three := measure(ObLemma1, ObStealSoundness, ObPotentialDecrease)
	// A task's closures — the check's, the Attempt it captures, the shard
	// loop's — and, amortized, the worker's one trial machine. Growing a
	// machine and an enumerator per task, as shard setup once did, costs ~43.
	const perTask = 5
	extra := three - one
	t.Logf("lemma1 alone %.0f objects, with steal-soundness and potential-decrease %.0f: %.1f per added shard task", one, three, extra/(2*shardCount))
	if extra > 2*shardCount*perTask {
		t.Errorf("two more obligations cost %.0f objects, want at most %d per shard task (%d)", extra, perTask, 2*shardCount*perTask)
	}
}

// The game explorer allocates per shard task, not per node: its memo is
// one key table whose arena and index the worker's scratch keeps, so a
// second identical work-conservation-concurrent shard on the same scratch
// allocates the task's closures and nothing that grows with the nodes it
// explores.
func TestGameExplorerAllocatesNothingPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what escapes to the heap")
	}
	p := policy.NewDelta2()
	f := func() sched.Policy { return p }
	var sc shardScratch
	for _, u := range []statespace.Universe{
		{Cores: 3, MaxPerCore: 2},
		{Cores: 4, MaxPerCore: 3, MaxTotal: 7, IncludeUnscheduled: true},
	} {
		var r Result
		runTask(context.Background(), ObWorkConservConc, f, u, 0, &sc)
		allocs := testing.AllocsPerRun(3, func() { r = runTask(context.Background(), ObWorkConservConc, f, u, 0, &sc) })
		if !r.Passed {
			t.Fatalf("%v: delta2 refuted: %s", u, r.Witness)
		}
		t.Logf("%v: %.0f objects for a shard of %d states, %d schedules", u, allocs, r.StatesChecked, r.SchedulesChecked)
		const perTask = 8
		if allocs > perTask {
			t.Errorf("%v: a warmed shard allocates %.0f objects, want at most %d whatever its node count", u, allocs, perTask)
		}
	}
}

// A livelock witness prints the cycle only: from the path node whose memo
// entry the repeated state has, not from the root of the search.
func TestDescribeCyclePrintsFromTheRepeatedNode(t *testing.T) {
	a, b, c := sched.MachineFromLoads(0, 0, 3), sched.MachineFromLoads(0, 1, 2), sched.MachineFromLoads(0, 2, 1)
	e := &concExplorer{path: []pathNode{
		{m: a, node: 0, order: []int{0, 1, 2}},
		{m: b, node: 1, order: []int{1, 0, 2}},
		{m: c, node: 2, order: []int{2, 1, 0}},
	}}
	const want = "adversarial livelock: state [0 1 2] recurs without conserving; schedule:" +
		" [0 1 2] --steal-order [1 0 2]--> [0 2 1] --steal-order [2 1 0]--> [0 1 2]"
	if got := e.describeCycle(b, 1); got != want {
		t.Errorf("witness\n got %s\nwant %s", got, want)
	}
}
