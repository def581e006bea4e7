package verify

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
)

// runTask is one (obligation, shard) task of PolicyContext's fan-out, on
// the given scratch, with its witness rendered. A graph row's task reads
// a game graph of the shard's own start states, built on the scratch
// alone (the scratch keeps it from task to task); a build cut short is
// the task's Result.
func runTask(ctx context.Context, id ObligationID, f Factory, u statespace.Universe, s int, sc *shardScratch) Result {
	var res Result
	sc.ctx, sc.f, sc.maxRounds, sc.render = ctx, f, DefaultMaxRounds, true
	ob := row(id)
	if ob.graph != 0 {
		g := sc.graph
		if g == nil {
			g = new(gameGraph)
		}
		if !g.build(u, s, shardCount, []*shardScratch{sc}, 0, ob.graph) {
			return g.cutResult(id, ob.graph)
		}
	}
	sc.runShard(ob, u, s, &res)
	return res
}

// A worker's scratch carries nothing from one shard task to the next
// that a Result can see: every task run on one reused scratch yields the
// Result the same task yields on a fresh one. The sequence opens with a
// game cancelled mid-expansion, a game whose policy panics mid-expansion
// and a refuted game, each of which leaves the game graph half built, then
// changes the obligation, the policy and the universe's cores, fault
// dimension and layout under the same scratch: a grouped universe's
// layout must not leak into the ungrouped one after it.
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
	grouped := statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}}
	flat := grouped
	flat.Groups = nil
	cfsGroupBuggy := func() sched.Policy { return registered("cfs-group-buggy") }
	steps := []struct {
		name string
		f    Factory
		u    statespace.Universe
		ids  []ObligationID
	}{
		{"greedy-buggy", greedyFactory, DefaultUniverse(), []ObligationID{ObWorkConservConc}},
		{"delta2-rescue", rescueFactory, faultUniverse(), []ObligationID{ObNoTaskLost, ObDegradedWastedCores}},
		{"cfs-group-buggy", cfsGroupBuggy, grouped, AllObligations()},
		{"cfs-group-buggy", cfsGroupBuggy, flat, AllObligations()},
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
		t.Fatal("greedy-buggy refuted no shard: the sequence never left a refuted game graph behind")
	}
}

// Shard setup is the worker's, not the task's: once one obligation's
// tasks have grown a Sequential run's one scratch, the tasks of further
// obligations that allocate nothing per state add nothing.
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
	// A task's check is its row's static method and its state is the
	// scratch's, so a task allocates nothing (it read 1 object, the
	// check's closure, while the checks were built per task, and 4 while
	// the Attempt and the enumeration callback escaped too). Growing a
	// machine and an enumerator per task, as shard setup once did, costs ~43.
	const perTask = 0.5
	extra := three - one
	t.Logf("lemma1 alone %.0f objects, with steal-soundness and potential-decrease %.0f: %.1f per added shard task", one, three, extra/(2*shardCount))
	if extra > 2*shardCount*perTask {
		t.Errorf("two more obligations cost %.0f objects, want at most %.1f per shard task (%.0f)", extra, perTask, 2*shardCount*perTask)
	}
}

// A game allocates per call, not per node: the call's graph — a key
// table numbering the nodes, their keys, edges and layers — and the
// workers' levels are storage graphPool and scratchPool keep, so a
// warmed work-conservation-concurrent report allocates no more on a
// universe of thousands of nodes than on one of a dozen.
func TestGameExplorerAllocatesNothingPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what escapes to the heap")
	}
	p := policy.NewDelta2()
	f := func() sched.Policy { return p }
	var allocs [2]float64
	for i, u := range []statespace.Universe{
		{Cores: 3, MaxPerCore: 2},
		{Cores: 4, MaxPerCore: 3, MaxTotal: 7, IncludeUnscheduled: true},
	} {
		cfg := Config{Universe: u, Obligations: []ObligationID{ObWorkConservConc}, Sequential: true}
		var rep *Report
		report := func() { rep, _ = PolicyContext(context.Background(), "delta2", f, cfg) }
		report()
		allocs[i] = testing.AllocsPerRun(3, report)
		if r := rep.Results[0]; !r.Passed {
			t.Fatalf("%v: delta2 refuted: %s", u, r.Witness)
		} else {
			t.Logf("%v: %.0f objects for a report of %d states, %d schedules", u, allocs[i], r.StatesChecked, r.SchedulesChecked)
		}
	}
	if allocs[1] > allocs[0] {
		t.Errorf("a warmed report allocates %.0f objects on the large universe, %.0f on the small one: want no more, whatever the node count", allocs[1], allocs[0])
	}
}

// A livelock witness prints the lasso's cycle only: from the first node
// the walk from the start state revisits, back to it. greedy-buggy's
// [0 1 2] lies on its cycle; [0 0 1 3] reaches one a round later.
func TestLassoPrintsTheCycleOnly(t *testing.T) {
	for _, c := range []struct {
		loads []int
		want  string
	}{
		{[]int{0, 1, 2}, "from [0 1 2]: adversarial livelock: state [0 1 2] recurs without conserving; schedule:" +
			" [0 1 2] --steal-order [1 0 2]--> [0 2 1] --steal-order [2 0 1]--> [0 1 2]"},
		{[]int{0, 0, 1, 3}, "from [0 0 1 3]: adversarial livelock: state [1 0 2 1] recurs without conserving; schedule:" +
			" [1 0 2 1] --steal-order [0 1 3 2]--> [2 0 1 1] --steal-order [2 1 3 0]--> [1 0 2 1]"},
	} {
		var res Result
		sc := &shardScratch{ctx: context.Background(), f: greedyFactory, res: &res, render: true}
		// A universe whose start states include c.loads.
		u := statespace.Universe{Cores: len(c.loads), MaxPerCore: slices.Max(c.loads), MaxTotal: 4}
		if !new(gameGraph).build(u, 0, 1, []*shardScratch{sc}, 0, orderGame) {
			t.Fatalf("the build over %v was cut short: %s", u, sc.graph.cut)
		}
		sc.seed = sc.graph.find(sc, sched.MachineFromLoads(c.loads...))
		if sc.workConservationConcurrent(0, nil) {
			t.Fatalf("greedy-buggy conserves work from %v", c.loads)
		}
		if res.Witness != c.want {
			t.Errorf("witness\n got %s\nwant %s", res.Witness, c.want)
		}
	}
}

// A report allocates per report, not per shard: its workers' scratches
// come from the pool a first report grew, no shard renders a witness —
// the merge renders each refuted obligation's once — and the shard
// loop's enumeration callback stays on the stack. greedy-buggy on the
// benchmark's one-fault universe refutes six of its ten obligations: if
// every refuting shard rendered its witness, a report would render up to
// 48 to keep 6.
func TestPooledReportAllocatesPerReport(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1}
	cfg := Config{Universe: u, Parallelism: 2}
	var rep *Report
	report := func() { rep, _ = PolicyContext(context.Background(), "greedy-buggy", greedyFactory, cfg) }
	report()
	allocs := testing.AllocsPerRun(10, report)
	refuted := 0
	for _, r := range rep.Results {
		if !r.Passed {
			refuted++
		}
	}
	if refuted != 6 {
		t.Fatalf("greedy-buggy refuted %d obligations, want 6:\n%s", refuted, rep)
	}
	t.Logf("%.0f objects per report", allocs)
	// It reads 69–86 on go1.24: 136–150 while the shards that could still
	// win the merge rendered their witnesses (2.3–2.7 renders per refuted
	// obligation), 570–584 while every task built its check's closure and
	// witnesses went through fmt's reflection, 1 391–1 396 before the
	// pool, the witness gate and the stack-held enumeration callback.
	const bound = 120
	if allocs > bound {
		t.Errorf("a second report allocates %.0f objects, want at most %d", allocs, bound)
	}
}

// The merge's render is the shard's: for every refuted obligation of the
// golden corpus, at Parallelism 1, 2 and 8, the report's witness is the
// one the winning shard (rank mod shardCount) renders when it runs on its
// own with rendering on.
func TestMergedWitnessIsTheWinningShards(t *testing.T) {
	refuted := 0
	for _, c := range goldenCases(t) {
		for _, par := range []int{1, 2, 8} {
			rep, err := PolicyContext(context.Background(), c.name, c.f, Config{Universe: c.u, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rep.Results {
				if r.Aborted {
					t.Errorf("%s %v %s at parallelism %d: %s", c.name, c.u, r.ID, par, r.Witness)
				}
				if r.Passed || r.Aborted {
					continue
				}
				refuted++
				s := r.order % shardCount
				shard := runTask(context.Background(), r.ID, c.f, c.u, s, new(shardScratch))
				if shard.Passed || shard.order != r.order || shard.Witness != r.Witness || r.Witness == "" {
					t.Errorf("%s %v %s at parallelism %d: merged rank %d witness %q\nshard %d: rank %d witness %q",
						c.name, c.u, r.ID, par, r.order, r.Witness, s, shard.order, shard.Witness)
				}
			}
		}
	}
	if refuted == 0 {
		t.Fatal("the golden corpus refuted nothing")
	}
}

// fanOutCalls counts the factory calls greedy-buggy's Sequential report
// on u makes before its merge renders: its game graph build's and its
// shard tasks', which render nothing.
func fanOutCalls(u statespace.Universe) int64 {
	var calls atomic.Int64
	counting := func() sched.Policy { calls.Add(1); return greedyFactory() }
	sc := &shardScratch{ctx: context.Background(), f: counting, maxRounds: DefaultMaxRounds}
	fanOut(u, AllObligations(), []*shardScratch{sc})
	return calls.Load()
}

// The merge's render polls no cancellation and contains a panic: a
// report whose fan-out finished carries every witness even when ctx is
// cancelled at the render's first factory call, and a policy that panics
// there aborts only the obligation being rendered — the renders of the
// obligations after it still run, and no goroutine dies.
func TestRenderIgnoresCancellationAndContainsPanics(t *testing.T) {
	cfg := Config{Universe: statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 5, IncludeUnscheduled: true, MaxFaults: 1}, Sequential: true}
	want, err := PolicyContext(context.Background(), "greedy-buggy", greedyFactory, cfg)
	if err != nil || want.Passed() {
		t.Fatalf("greedy-buggy: err %v, passed %v", err, want.Passed())
	}
	fanOut := fanOutCalls(cfg.Universe)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cancelling := func() sched.Policy {
		if calls.Add(1) == fanOut+1 {
			cancel()
		}
		return greedyFactory()
	}
	got, err := PolicyContext(ctx, "greedy-buggy", cancelling, cfg)
	if ctx.Err() == nil {
		t.Fatal("the render never called the factory")
	}
	if err != nil || !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("cancelled during the render: err %v, report\n%s\nwant\n%s", err, got, want)
	}

	calls.Store(0)
	panicking := func() sched.Policy {
		if calls.Add(1) == fanOut+1 {
			panic("mid-render")
		}
		return greedyFactory()
	}
	got, _ = PolicyContext(context.Background(), "greedy-buggy", panicking, cfg)
	first := -1
	for i, r := range want.Results {
		switch {
		case first < 0 && !r.Passed:
			first = i
			if g := got.Results[i]; !g.Aborted || g.Witness != "aborted: checker panic: mid-render" {
				t.Errorf("%s: the render's panic left %+v", r.ID, g)
			}
		case !reflect.DeepEqual(got.Results[i], r):
			t.Errorf("%s after the panicking render:\n got %+v\nwant %+v", r.ID, got.Results[i], r)
		}
	}
}
