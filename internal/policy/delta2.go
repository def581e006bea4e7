// Package policy provides the scheduling policies studied in the paper
// and the registry that names them: the provably work-conserving
// balancers (Delta2 from Listing 1, its weighted variant, the
// hierarchical §5 extension and NUMA-aware step-2 variants), a model of
// the CFS "group imbalance" bug that motivates the work, the §4.3
// greedy-buggy counterexample, and baselines.
//
// Every policy implements sched.Policy; some additionally implement
// sched.RoundObserver (group-statistics policies) or sched.TaskPicker
// (weighted stealing). The policies today's DSL expresses exactly —
// greedy-buggy, null, delta1-aggressive, random-choice and delta2-rescue
// — are registered as DSL source only (Spec.DSL), compiled by Register;
// the rest are Go. internal/verify checks each against the paper's proof
// obligations — `go run ./cmd/schedbench` prints the internal/experiment
// tables of which pass and which fail, and with what witnesses.
package policy

import (
	"repro/internal/sched"
)

// Delta2 is the simple load balancer of Listing 1: core A steals one task
// from core B iff B has at least two more threads than A. It is the
// paper's running example of a provably work-conserving policy:
//
//   - Lemma 1: an idle core (load 0) can steal from any overloaded core
//     (load ≥ 2) since 2 − 0 ≥ 2, and the filter passes only cores with
//     load ≥ 2, which are overloaded.
//   - Soundness: one task moves, so the stealee keeps ≥ 1 thread.
//   - Potential: a single-task steal across a gap ≥ 2 strictly decreases
//     the pairwise imbalance.
type Delta2 struct {
	// Chooser is the step-2 heuristic; nil means lowest-ID candidate.
	// Swapping it never affects the proofs — the paper's core claim.
	Chooser sched.ChooseFunc
}

// NewDelta2 returns the Listing 1 balancer with the deterministic
// lowest-ID choice.
func NewDelta2() *Delta2 { return &Delta2{} }

// Name implements sched.Policy.
func (p *Delta2) Name() string { return "delta2" }

// Load implements sched.Policy: the thread count, as in Listing 1.
func (p *Delta2) Load(c *sched.Core) int64 { return int64(c.NThreads()) }

// CanSteal implements sched.Policy: Listing 1 line 6.
func (p *Delta2) CanSteal(thief, stealee *sched.Core) bool {
	return p.Load(stealee)-p.Load(thief) >= 2
}

// Choose implements sched.Policy (step 2).
func (p *Delta2) Choose(thief *sched.Core, candidates []*sched.Core) *sched.Core {
	if p.Chooser == nil {
		return sched.ChooseFirst(thief, candidates)
	}
	return p.Chooser(thief, candidates)
}

// StealCount implements sched.Policy: stealOneThread, Listing 1 line 13.
func (p *Delta2) StealCount(_, _ *sched.Core) int { return 1 }

var _ sched.Policy = (*Delta2)(nil)
