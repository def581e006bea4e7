package verify

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// This file is the verifier's skeleton: the one shard loop every
// obligation runs under (runShard), the deterministic merge of per-shard
// Results and its one witness render (explain), and the worker pool.
// Every obligation's quantifier ("for all machines in the universe") is
// split into shardCount disjoint slices via
// statespace.Enumerator.EnumerateShardRank; PolicyContext fans the
// slices out and merges them back into one Result. A graph row's slice
// is the same start states, read from the call's game graph (game.go),
// which is built once for all of them.
//
// Two properties make the reports byte-identical run to run, across
// parallelism levels and across hosts:
//
//   - The shard count is a constant, independent of the configured
//     worker count and of the machine, so every run checks exactly the
//     same slices. The game graph is the whole universe's, whoever
//     built which part of it, and a game row counts each node it
//     reaches once, whichever shard reached it first.
//   - A refuted shard records only the global enumeration rank of its
//     refutation, and the merge keeps the lowest — the refutation a
//     sequential scan of the whole universe would have found first.
//     Shards never cancel each other: each runs to its own first
//     refutation or to exhaustion, so the merged counters are equal at
//     every parallelism level (including Sequential) at the price of a
//     fuller sweep on refuted policies.
//
// Shards decide and the merge explains: no shard renders a witness, and
// for each refuted obligation the merge renders the winning one once,
// on the calling goroutine (explain). Concurrently running shard tasks
// share only the task counter and the call's game graph, which they
// read once it is built, marking the nodes a game row has counted with
// atomic bits.

// shardCount is the per-obligation shard count. Changing it changes
// which states a refuted obligation's shards scan, so it bumps Version.
const shardCount = 8

// shardScratch is what one worker's shard tasks run on, kept from task to
// task and, in scratchPool, from call to call (a call takes one per
// worker, Sequential exactly one). Its first fields are the running
// task's: set once per task by the fan-out and runShard, read by the
// per-state checks, and their references cleared on return to the pool.
// The rest is the worker's: the enumerator, its share of a game graph
// build's level, the machines a node is rebuilt and a round is run on,
// and every buffer a per-state check reuses. A check resets what it
// takes as its own per-state code always has, so a shard's Result never
// depends on the tasks the scratch ran before.
type shardScratch struct {
	ctx       context.Context
	f         Factory
	res       *Result // the shard's Result, which the check reports into
	render    bool    // refute renders the witness: set only by explain
	maxRounds int     // Config.MaxRounds, defaulted
	walked    int     // the orders walked since the last poll's stride began
	ablation  *AblationResult
	graph     *gameGraph // the call's game graph, which the graph rows read
	seed      int        // the start node a graph row's check is handed

	enum  statespace.Enumerator
	level graphLevel      // the worker's share of a build level
	link  roundFunc       // linkRound, bound once
	m     sched.Machine   // a graph node's state, rebuilt from its key
	trial sched.Machine   // the copy a single steal or one whole order runs on
	att   sched.Attempt   // the single steal's attempt (a local one would escape)
	atts  []sched.Attempt // expand's victim assignment
	perms permScratch
	key   []byte             // a graph row's start state key
	stack []int32            // enter's walk
	seen  statespace.Visited // the sequential checks' cycle set
	start []int              // the start state's loads, for the witness
	// noTaskLost's orphan maps: orphanedAt[id] is the round at which
	// task id became an orphan, orphanCore[id] the offline core holding
	// it.
	orphanedAt map[sched.TaskID]int
	orphanCore map[sched.TaskID]int
}

// scratchPool keeps worker scratches between fan-outs.
var scratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// takeScratch takes n worker scratches from scratchPool.
func takeScratch(n int) []*shardScratch {
	scratch := make([]*shardScratch, n)
	for w := range scratch {
		scratch[w] = scratchPool.Get().(*shardScratch)
	}
	return scratch
}

// forEachPooledTask is sched.ForEach with each of min(workers, n)
// workers on a scratch from scratchPool, put back when done.
func forEachPooledTask(n, workers int, fn func(sc *shardScratch, i int)) {
	scratch := takeScratch(min(workers, n))
	sched.ForEach(n, len(scratch), func(w, i int) bool {
		fn(scratch[w], i)
		return true
	})
	for _, sc := range scratch {
		putScratch(sc)
	}
}

// putScratch puts sc back into scratchPool, minus its references into
// the call and with rendering off.
func putScratch(sc *shardScratch) {
	sc.ctx, sc.f, sc.res, sc.ablation, sc.graph, sc.render = nil, nil, nil, nil, nil, false
	scratchPool.Put(sc)
}

// runShard is the one shard loop: it walks shard s of u on the scratch's
// enumerator, and for every machine polls cancellation (every 64
// states), counts the state in res, and hands it to ob's check. res is
// reset to a passing Result for ob first and is what the check reports
// into; the task's context, factory and round bound are the caller's to
// set. Only an obligation whose row quantifies over
// faults sees the universe's fault dimension; for everything else
// MaxFaults is zeroed, so verdicts, counters and witnesses on a
// fault-extended universe stay byte-identical to the healthy universe's.
//
// Panics are contained here: shard tasks run on pool goroutines, where
// an uncaught panic (a crashing checker or policy) would kill the whole
// process — in the daemon, taking every other job with it. A panicking
// shard instead becomes an aborted shard result, which the merge
// propagates as an ABORTED obligation (never cached, so the next
// submission re-runs it); see contain.
//
// The returned duration is how long the shard took. Every (obligation,
// shard) task passes through here, so this is the one place shard time
// is stamped; it travels beside the Results (Report.Elapsed), never in
// them.
func (sc *shardScratch) runShard(ob *obligation, u statespace.Universe, s int, res *Result) (took time.Duration) {
	defer func(start time.Time) { took = time.Since(start) }(time.Now()) //schedlint:allow determinism shard timing is telemetry beside the report (Report.Elapsed, json:"-"), never in a Result, a memo key or a WAL frame
	defer contain(ob.id, res)
	u = sc.arm(ob, u, res)
	sc.states(ob, u, s, func(rank int, m *sched.Machine) bool {
		if res.StatesChecked&63 == 0 && aborted(sc.ctx, res) {
			return false
		}
		res.StatesChecked++
		return ob.check(sc, rank, m)
	})
	return // took is stamped by the deferred call above
}

// states walks shard s of u as ob quantifies over it, stopping when fn
// returns false: the enumerated machines, or for a graph row the call's
// graph's start states in the same order, each handed over as its node
// (in seed) and no machine — the graph holds its state.
func (sc *shardScratch) states(ob *obligation, u statespace.Universe, s int, fn func(rank int, m *sched.Machine) bool) {
	if ob.graph == 0 {
		sc.enum.EnumerateShardRank(u, s, shardCount, fn)
		return
	}
	for _, st := range sc.graph.starts {
		if int(st.rank)%shardCount != s {
			continue
		}
		if sc.seed = int(st.node); !fn(int(st.rank), nil) {
			return
		}
	}
}

// arm readies the scratch for a task of ob that reports into res: res
// passes until the check says otherwise, and the returned universe is u
// as ob quantifies over it.
func (sc *shardScratch) arm(ob *obligation, u statespace.Universe, res *Result) statespace.Universe {
	*res = Result{ID: ob.id, Passed: true}
	if !ob.faults {
		u.MaxFaults = 0
	}
	sc.res, sc.walked = res, 0
	return u
}

// contain, deferred, turns a panic of the task reporting into res into
// an aborted res: a crashing checker or policy becomes an ABORTED
// obligation, never a dead process.
func contain(id ObligationID, res *Result) {
	if p := recover(); p != nil {
		*res = Result{ID: id, Aborted: true, Witness: fmt.Sprintf("aborted: checker panic: %v", p)}
	}
}

// explain renders the witness of merged, ob's refutation at the lowest
// rank any shard reached. Shards record only a refutation's rank, so
// explain re-runs ob's check with rendering on, over the states of
// thread-count vector merged.order up to the first one the check
// refutes, and copies that witness. A rank names a count vector, not a
// machine, and a check's verdict on a machine depends on that machine
// alone, so the first refuted machine of the vector is the one the
// winning shard refuted. The vector is re-enumerated on the shard that
// owns it (rank mod shardCount: shard s owns exactly the ranks ≡ s), and
// the re-check reports into res, a Result whose counters are thrown away.
// The context, factory and round bound are the caller's to set, as for
// runShard. A panic is contained as runShard contains one: merged
// becomes aborted.
func (sc *shardScratch) explain(ob *obligation, u statespace.Universe, merged, res *Result) {
	defer contain(ob.id, merged)
	want := merged.order
	u = sc.arm(ob, u, res)
	sc.render = true
	sc.states(ob, u, want%shardCount, func(rank int, m *sched.Machine) bool {
		return rank < want || rank == want && ob.check(sc, rank, m)
	})
	if res.Passed {
		panic(fmt.Sprintf("verify: the re-check of %s at rank %d refuted nothing: is the policy deterministic?", ob.id, want))
	}
	merged.Witness = res.Witness
}

// refute records a refutation found at the given global enumeration
// rank. The merge keeps the lowest rank, i.e. the first refutation in
// Enumerate order, and explain renders its witness.
func (r *Result) refute(rank int) {
	r.Passed = false
	r.order = rank
}

// refute records in the task's Result a refutation at rank, rendering
// its witness only when the scratch renders (explain).
func (sc *shardScratch) refute(rank int, witness func() string) bool {
	sc.res.refute(rank)
	if sc.render {
		sc.res.Witness = witness()
	}
	return false
}

// abort marks r as cut short: not passed, nothing refuted, witness
// saying why.
func (r *Result) abort(witness string) {
	r.Passed = false
	r.Aborted = true
	r.Witness = witness
}

// raiseBound keeps the worst-case N seen so far.
func (r *Result) raiseBound(n int) {
	if n > r.Bound {
		r.Bound = n
	}
}

// satAdd is a + b for the schedule counts, saturating at math.MaxInt
// rather than wrapping: one walked order stands for up to 20! schedules
// (the most statespace.Universe.Validate admits), so the sum over a wide
// sparse universe can pass what an int holds.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// aborted reports whether ctx is done and, if so, marks res as aborted
// with the cancellation as the witness. runShard polls it every 64
// enumerated states, and walk every 64 walked steal orders (ctx.Err
// takes a mutex, and concurrent shard checks would otherwise contend on
// it in their hottest loops).
func aborted(ctx context.Context, res *Result) bool {
	if ctx.Err() == nil {
		return false
	}
	res.abort("aborted: " + ctx.Err().Error())
	return true
}

// walk counts one walked steal order, standing for weight schedules, and
// reports whether the shard goes on. Polling every 64 walked orders keeps
// a state's k! fan-out from multiplying cancellation latency; the weighted
// count could step over every multiple of 64.
func (sc *shardScratch) walk(weight int) bool {
	if sc.walked&63 == 0 && aborted(sc.ctx, sc.res) {
		return false
	}
	sc.walked++
	sc.res.SchedulesChecked = satAdd(sc.res.SchedulesChecked, weight)
	return true
}

// mergeResults folds per-shard results into the obligation's Result:
// counters sum, bounds max, and the verdict follows the report's
// precedence — a conclusive refutation (lowest witness rank wins)
// outranks cancellation, which outranks a pass. The shards' durations
// sum into the obligation's elapsed time.
func mergeResults(id ObligationID, parts []Result, took []time.Duration) (Result, time.Duration) {
	merged := Result{ID: id, Passed: true}
	var elapsed time.Duration
	var refuted, cut *Result
	for i := range parts {
		p := &parts[i]
		elapsed += took[i]
		merged.StatesChecked += p.StatesChecked
		merged.SchedulesChecked = satAdd(merged.SchedulesChecked, p.SchedulesChecked)
		merged.raiseBound(p.Bound)
		switch {
		case p.Aborted:
			if cut == nil {
				cut = p
			}
		case !p.Passed:
			if refuted == nil || p.order < refuted.order {
				refuted = p
			}
		}
	}
	switch {
	case refuted != nil:
		merged.refute(refuted.order)
	case cut != nil:
		merged.abort(cut.Witness)
	}
	return merged, elapsed
}
