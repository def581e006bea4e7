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
	// unchecked round emptied an overloaded victim or otherwise broke
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

// unchecked is a policy with the step-3 re-validation (Listing 1 line
// 12) deleted: its filter admits every steal, so the stealing phase
// honours each stale selection blindly. Selection still runs the
// policy's own filter and nothing else changes. The wrapper also hides a
// TaskPicker's pick, so every steal takes StealCount tasks from the
// victim's tail; a registered picker's StealCount is the one task its
// pick moves from any victim that passed its filter.
type unchecked struct{ sched.Policy }

// CanSteal implements sched.Policy: every steal is admitted.
func (unchecked) CanSteal(_, _ *sched.Core) bool { return true }

// uncheckedRound is the ablation's round: p's lock-free selection, then
// the real stealing phase without the re-check.
func uncheckedRound(p sched.Policy, m *sched.Machine, order []int) {
	sched.ExecuteSteals(unchecked{p}, m, sched.SelectAll(p, m), order)
}

// CheckRevalidationAblation runs every state of the universe through
// every adversarial order twice — once with the safe ConcurrentRound,
// once with the re-check deleted (uncheckedRound) — and records the
// violations only the unchecked round commits; an order walked stands
// for its class (stealOrders), so its violations count by the class's
// weight. A sound policy must show zero violations in the safe half
// (that is asserted, not counted) and the unchecked half demonstrates
// why the paper's model requires atomic, re-validated steals. It is a steady-state sweep under the obligations' own shard
// loop: the universe's fault dimension is ignored, the shards run on a
// pool of GOMAXPROCS workers (f must be safe for concurrent calls), and
// a panicking shard is contained and re-raised on the caller.
func CheckRevalidationAblation(ctx context.Context, f Factory, u statespace.Universe) AblationResult {
	shards := make([]Result, shardCount)
	parts := make([]AblationResult, shardCount)
	workers := runtime.GOMAXPROCS(0)
	forEachPooledTask(shardCount, workers, func(sc *shardScratch, s int) {
		parts[s].order = -1
		sc.ctx, sc.f, sc.ablation = ctx, f, &parts[s]
		sc.runShard(&ablationRow, u, s, &shards[s])
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

// ablationRow runs the sweep under the obligations' shard loop. It is
// not an obligation: nothing memoizes it, so it is not in the table.
var ablationRow = obligation{id: "revalidation-ablation", check: (*shardScratch).ablationState}

// ablationState is the sweep's per-state check. The shard's Result
// carries the state and schedule counters and the abort flag; the
// violations — counted, never a reason to stop — go into the task's
// AblationResult.
func (sc *shardScratch) ablationState(rank int, m *sched.Machine) bool {
	out := sc.ablation
	// One selection per state gives the attempting set: each round below
	// selects the same way on a copy of m, and the stealing phase passes
	// over a core with no victim without calling the policy, so every
	// order of a class commits the same violations.
	return sc.perms.stealOrders(sched.SelectAll(sc.f(), m), func(order []int, weight int) bool {
		if !sc.walk(weight) {
			return false
		}

		// The safe round's copy is checked before the unsafe round runs,
		// so both rounds run on the worker's one trial machine.
		trial := &sc.trial
		sched.ConcurrentRound(sc.f(), trial.CopyFrom(m), order)
		if v := roundViolation(sc.f(), m, trial); v != "" {
			panic(fmt.Sprintf("verify: safe executor violated soundness: %s", v))
		}

		uncheckedRound(sc.f(), trial.CopyFrom(m), order)
		if v := roundViolation(sc.f(), m, trial); v != "" {
			out.witness(rank, func() string { return "state " + ints(m.Loads()) + " order " + ints(order) + ": " + v })
			out.SoundnessViolations = satAdd(out.SoundnessViolations, weight)
		}
		p := sc.f()
		beginRound(p, m)
		before := sched.PairwiseImbalance(p, m)
		after := sched.PairwiseImbalance(p, trial)
		if after > before {
			out.witness(rank, func() string {
				return fmt.Sprintf("state %s order %s: unchecked round raised potential %d -> %d",
					ints(m.Loads()), ints(order), before, after)
			})
			out.PotentialViolations = satAdd(out.PotentialViolations, weight)
		}
		return true
	})
}

// witness keeps the shard's first violation, rendered only then.
func (r *AblationResult) witness(rank int, w func() string) {
	if r.FirstWitness == "" {
		r.FirstWitness = w()
		r.order = rank
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
