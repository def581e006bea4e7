package verify

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// AblationResult reports what breaks when the step-3 re-validation
// (Listing 1 line 12) is removed — experiment E8's ablation.
type AblationResult struct {
	// SchedulesChecked counts the explored (state, order) pairs.
	SchedulesChecked int
	// SoundnessViolations counts (state, order) pairs where the
	// unchecked executor emptied an overloaded victim or otherwise broke
	// steal soundness.
	SoundnessViolations int
	// PotentialViolations counts (state, order) pairs where a round of
	// unchecked steals increased the pairwise imbalance, destroying the
	// bounded-successes argument.
	PotentialViolations int
	// FirstWitness describes the first violation found, in the
	// deterministic whole-universe enumeration order.
	FirstWitness string
	// Aborted reports that the enumeration was cut short by context
	// cancellation; the counts above cover only the states visited.
	Aborted bool

	// order is FirstWitness's global enumeration rank, used to merge
	// per-shard witnesses deterministically (lowest rank wins).
	order int
}

// CheckRevalidationAblation runs every state of the universe through
// every adversarial order twice — once with the safe ConcurrentRound,
// once with UnsafeConcurrentRound — and records the violations only the
// unsafe variant commits; an order walked stands for its class
// (stealOrders), so its violations count by the class's weight. A sound policy must show zero violations in the
// safe half (that is asserted, not counted) and the unsafe half
// demonstrates why the paper's model requires atomic, re-validated
// steals. It is a steady-state sweep under the obligations' own shard
// loop: the universe's fault dimension is ignored, the shards run on a
// pool of GOMAXPROCS workers (f must be safe for concurrent calls), and
// a panicking shard is contained and re-raised on the caller.
func CheckRevalidationAblation(ctx context.Context, f Factory, u statespace.Universe) AblationResult {
	shards := make([]Result, shardCount)
	parts := make([]AblationResult, shardCount)
	workers := runtime.GOMAXPROCS(0)
	scratch := make([]shardScratch, min(workers, shardCount))
	forEachTask(shardCount, workers, func(w, s int) {
		parts[s].order = -1
		runShard(ctx, "revalidation-ablation", u, s, &scratch[w], &shards[s], ablationCheck(ctx, f, &scratch[w], &shards[s], &parts[s]))
	})
	merged := AblationResult{order: -1}
	for s, p := range parts {
		if shards[s].Aborted && ctx.Err() == nil {
			panic(shards[s].Witness)
		}
		merged.SchedulesChecked = satAdd(merged.SchedulesChecked, shards[s].SchedulesChecked)
		merged.SoundnessViolations = satAdd(merged.SoundnessViolations, p.SoundnessViolations)
		merged.PotentialViolations = satAdd(merged.PotentialViolations, p.PotentialViolations)
		merged.Aborted = merged.Aborted || shards[s].Aborted
		if p.FirstWitness != "" && (merged.order < 0 || p.order < merged.order) {
			merged.FirstWitness = p.FirstWitness
			merged.order = p.order
		}
	}
	return merged
}

// ablationCheck is the sweep's per-state check. The shard's Result
// carries the state and schedule counters and the abort flag; the
// violations — counted, never a reason to stop — go into out.
func ablationCheck(ctx context.Context, f Factory, sc *shardScratch, res *Result, out *AblationResult) stateCheck {
	witness := func(rank int, w string) {
		if out.FirstWitness == "" {
			out.FirstWitness = w
			out.order = rank
		}
	}
	// The safe round's copy is checked before the unsafe round runs, so
	// both rounds run on the worker's one trial machine.
	trial := &sc.trial
	walked := 0 // the shard's walked orders, the cancellation poll's stride
	return func(rank int, m *sched.Machine) bool {
		// One selection per state gives the attempting set: each round
		// below selects the same way on a copy of m, and both executors
		// pass over a core with no victim without calling the policy, so
		// every order of a class commits the same violations.
		return sc.perms.stealOrders(sched.SelectAll(f(), m), func(order []int, weight int) bool {
			// Poll per walked order, not just per state: each state fans
			// out to k! orders and each order runs two full rounds.
			if walked&63 == 0 && aborted(ctx, res) {
				return false
			}
			walked++
			res.SchedulesChecked = satAdd(res.SchedulesChecked, weight)

			sched.ConcurrentRound(f(), trial.CopyFrom(m), order)
			if v := roundViolation(f(), m, trial); v != "" {
				panic(fmt.Sprintf("verify: safe executor violated soundness: %s", v))
			}

			sched.UnsafeConcurrentRound(f(), trial.CopyFrom(m), order)
			if v := roundViolation(f(), m, trial); v != "" {
				witness(rank, fmt.Sprintf("state %v order %v: %s", m.Loads(), order, v))
				out.SoundnessViolations = satAdd(out.SoundnessViolations, weight)
			}
			p := f()
			beginRound(p, m)
			before := sched.PairwiseImbalance(p, m)
			after := sched.PairwiseImbalance(p, trial)
			if after > before {
				witness(rank, fmt.Sprintf(
					"state %v order %v: unchecked round raised potential %d -> %d",
					m.Loads(), order, before, after))
				out.PotentialViolations = satAdd(out.PotentialViolations, weight)
			}
			return true
		})
	}
}

// roundViolation reports how a round broke soundness: an overloaded core
// of the pre-state ended up idle (its work was stolen to exhaustion), the
// thread population changed, or the machine corrupted.
func roundViolation(p sched.Policy, before, after *sched.Machine) string {
	if after.TotalThreads() != before.TotalThreads() {
		return fmt.Sprintf("thread population %d -> %d", before.TotalThreads(), after.TotalThreads())
	}
	if err := after.Validate(); err != nil {
		return err.Error()
	}
	for i, c := range before.Cores {
		if !c.Idle() && after.Core(i).Idle() {
			return fmt.Sprintf("core %d was drained to idle (had %d threads)", i, c.NThreads())
		}
	}
	return ""
}
