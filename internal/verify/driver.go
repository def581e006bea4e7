package verify

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// This file is the verifier's skeleton: the one shard loop every
// obligation runs under (runShard), the dispatch from an obligation to
// its per-state check (newStateCheck), the deterministic merge of
// per-shard Results, and the worker pool. Every obligation's quantifier
// ("for all machines in the universe") is split into shardCount disjoint
// slices via statespace.Universe.EnumerateShardRank; PolicyContext fans
// the slices out and merges them back into one Result.
//
// Two properties make the reports byte-identical run to run, across
// parallelism levels and across hosts:
//
//   - The shard count is a constant, independent of the configured
//     worker count and of the machine, so every run checks exactly the
//     same slices (the game explorers' memo is shard-local, so their
//     schedule counters depend on the partition).
//   - A refuted shard records the global enumeration rank of its
//     witness, and the merge keeps the lowest-ranked one — the same
//     witness a sequential scan of the whole universe would have found
//     first. Shards never cancel each other: each runs to its own first
//     witness or to exhaustion, so the merged counters are equal at
//     every parallelism level (including Sequential) at the price of a
//     fuller sweep on refuted policies.

// shardCount is the per-obligation shard count. Changing it changes the
// schedule counters of the game obligations, so it bumps Version.
const shardCount = 8

// shardScratch is what one worker's shard tasks run on, kept from task to
// task for the length of one fan-out (PolicyContext makes one per worker,
// Sequential exactly one): the enumerator, the game explorer with its
// memo and free lists, the cycle set, and every buffer a per-state check
// reuses. A check takes what it needs from the scratch when it is built and
// resets it as its own per-state code always has, so a shard's Result
// never depends on the tasks the scratch ran before — in particular the
// explorer's memo is cleared per shard, never shared across shards.
type shardScratch struct {
	enum     statespace.Enumerator
	explorer concExplorer
	trial    sched.Machine // the copy a single steal or one whole order runs on
	perms    permScratch
	seen     statespace.Visited // the sequential checks' cycle set
	start    []int              // the start state's loads, for the witness
	// noTaskLostCheck's orphan maps: orphanedAt[id] is the round at
	// which task id became an orphan, orphanCore[id] the offline core
	// holding it.
	orphanedAt map[sched.TaskID]int
	orphanCore map[sched.TaskID]int
}

// stateCheck examines one enumerated machine for one obligation. It is
// built once per (obligation, shard) around that shard's Result: it may
// mutate m but not retain it, reports a violation through
// Result.refute with the rank it was handed, and returns false to end
// the shard (refuted or aborted), true to go on.
type stateCheck func(rank int, m *sched.Machine) bool

// runShard is the one shard loop: it walks shard s of u on sc's
// enumerator, and for every machine polls cancellation (every 64 states),
// counts the state in
// res, and hands it to check. res is reset to a passing Result for id
// first and is what check reports into. The fault obligations are the
// only consumers of the universe's fault dimension; for everything else
// MaxFaults is zeroed, so verdicts, counters and witnesses on a
// fault-extended universe stay byte-identical to the healthy universe's.
//
// Panics are contained here: shard tasks run on pool goroutines, where
// an uncaught panic (a crashing checker or policy) would kill the whole
// process — in the daemon, taking every other job with it. A panicking
// shard instead becomes an aborted shard result, which the merge
// propagates as an ABORTED obligation (never cached, so the next
// submission re-runs it).
//
// The returned duration is how long the shard took. Every (obligation,
// shard) task passes through here, so this is the one place shard time
// is stamped; it travels beside the Results (Report.Elapsed), never in
// them.
func runShard(ctx context.Context, id ObligationID, u statespace.Universe, s int, sc *shardScratch, res *Result, check stateCheck) (took time.Duration) {
	defer func(start time.Time) { took = time.Since(start) }(time.Now()) //schedlint:allow determinism shard timing is telemetry beside the report (Report.Elapsed, json:"-"), never in a Result, a memo key or a WAL frame
	defer func() {
		if p := recover(); p != nil {
			*res = Result{
				ID:      id,
				Aborted: true,
				Witness: fmt.Sprintf("aborted: checker panic: %v", p),
			}
		}
	}()
	*res = Result{ID: id, Passed: true}
	if id != ObNoTaskLost && id != ObDegradedWastedCores {
		u.MaxFaults = 0
	}
	sc.enum.EnumerateShardRank(u, s, shardCount, func(rank int, m *sched.Machine) bool {
		if res.StatesChecked&63 == 0 && aborted(ctx, res) {
			return false
		}
		res.StatesChecked++
		return check(rank, m)
	})
	return // took is stamped by the deferred call above
}

// newStateCheck dispatches an obligation to its per-state check, on sc
// and reporting into res. maxRounds is already defaulted.
func newStateCheck(ctx context.Context, id ObligationID, f Factory, maxRounds int, sc *shardScratch, res *Result) stateCheck {
	switch id {
	case ObLemma1:
		return lemma1Check(f, res)
	case ObStealSoundness:
		return admittedSteals(f, sc, res, stealViolation)
	case ObPotentialDecrease:
		return admittedSteals(f, sc, res, potentialViolation)
	case ObFailureImpliesSucc:
		return failureImpliesSuccessCheck(ctx, f, sc, res)
	case ObWorkConservSeq:
		return workConservationSequentialCheck(f, maxRounds, sc, res)
	case ObWorkConservConc:
		return gameCheck(ctx, f, orderSuccessors, sc, res)
	case ObChoiceIndependence:
		return gameCheck(ctx, f, choiceSuccessors, sc, res)
	case ObReactivity:
		return reactivityCheck(ctx, f, sc, res)
	case ObNoTaskLost:
		return noTaskLostCheck(f, maxRounds, sc, res)
	case ObDegradedWastedCores:
		return degradedWastedCoresCheck(f, maxRounds, sc, res)
	default:
		panic(fmt.Sprintf("verify: unknown obligation %q", id))
	}
}

// refute records a refutation found at the given global enumeration
// rank. The merge keeps the witness with the lowest rank, i.e. the
// first one in Enumerate order.
func (r *Result) refute(rank int, witness string) {
	r.Passed = false
	r.Witness = witness
	r.order = rank
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
// enumerated states, and checks that fan one state out to its steal
// orders poll it every 64 walked orders (ctx.Err takes a mutex, and
// concurrent shard checks would otherwise contend on it in their
// hottest loops) — without the order-level poll that fan-out would
// multiply cancellation latency by up to k!. The poll counts walked
// orders, never the weighted schedule count: that jumps by n!/k! per
// order and could step over every multiple of 64.
func aborted(ctx context.Context, res *Result) bool {
	if ctx.Err() == nil {
		return false
	}
	res.abort("aborted: " + ctx.Err().Error())
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
		merged.refute(refuted.order, refuted.Witness)
	case cut != nil:
		merged.abort(cut.Witness)
	}
	return merged, elapsed
}

// forEachTask runs fn(w, i) for every i in [0, n) on min(workers, n)
// goroutines — the caller is one of them — that claim indices from one
// atomic counter: no goroutine is ever parked waiting for a slot, and a
// fast worker simply claims more. It is the one worker pool every
// parallel driver path shares. w is the index of the goroutine running
// the call, in [0, min(workers, n)), and no two concurrent calls share
// one, so fn may index per-worker scratch by w; each i is claimed exactly
// once, so fn needs no locking for per-index state either. workers=1
// runs every call inline on the caller, as worker 0.
func forEachTask(n, workers int, fn func(w, i int)) {
	var next atomic.Int64
	drain := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(w)
		}()
	}
	drain(0)
	wg.Wait()
}
