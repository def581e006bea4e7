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
