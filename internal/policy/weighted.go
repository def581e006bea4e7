package policy

import (
	"repro/internal/sched"
)

// Weighted is the niceness-weighted variant of Listing 1 that the paper
// reports Leon still proves automatically: the balancer equalizes the sum
// of task weights instead of the thread count. The filter admits a steal
// only when the stealee owns a *queued* task whose migration strictly
// decreases the weighted load gap — the inductive step of the
// potential-function proof:
//
//	|gap − 2w| < gap  ⟺  0 < w < gap
//
// Overshoot (the thief ending up heavier than the stealee) is permitted
// as long as the gap shrinks; convexity extends the local decrease to the
// global pairwise imbalance, which internal/verify checks exhaustively.
//
// Weighted implements sched.TaskPicker to migrate the admissible task
// closest to gap/2, shrinking the gap the most per steal.
type Weighted struct{}

// NewWeighted returns the weighted balancer with the deterministic
// lowest-ID choice.
func NewWeighted() *Weighted { return &Weighted{} }

// Name implements sched.Policy.
func (p *Weighted) Name() string { return "weighted" }

// Load implements sched.Policy: the sum of thread weights.
func (p *Weighted) Load(c *sched.Core) int64 { return c.WeightSum() }

// CanSteal implements sched.Policy: some queued task on stealee strictly
// shrinks the load gap. This is the weakest filter for which every steal
// decreases the potential, and it satisfies Lemma 1: an overloaded core
// owns a queued task, and any queued task's weight is below the core's
// total (the gap seen from an idle thief), so an idle thief always has a
// candidate when an overloaded core exists.
func (p *Weighted) CanSteal(thief, stealee *sched.Core) bool {
	return hasAdmissibleTask(stealee, p.Load(stealee)-p.Load(thief))
}

// Choose implements sched.Policy (step 2): the lowest-ID candidate.
func (p *Weighted) Choose(thief *sched.Core, candidates []*sched.Core) *sched.Core {
	return sched.ChooseFirst(thief, candidates)
}

// StealCount implements sched.Policy. The actual migration is driven by
// PickTask; the count is advisory.
func (p *Weighted) StealCount(_, _ *sched.Core) int { return 1 }

// PickTask implements sched.TaskPicker: the admissible queued task whose
// weight is closest to gap/2 (maximal gap shrinkage per steal).
func (p *Weighted) PickTask(thief, stealee *sched.Core) *sched.Task {
	return closestToHalfGap(stealee, p.Load(stealee)-p.Load(thief))
}

// closestToHalfGap returns the queued task on stealee whose migration
// shrinks the load gap the most — the admissible one (0 < w < gap) with
// weight closest to gap/2, the lighter on ties — or nil if none is. On a
// runqueue of one weight every admissible task ties on both counts, and
// the first, the head, wins; only a mixed-weight runqueue is scanned.
func closestToHalfGap(stealee *sched.Core, gap int64) *sched.Task {
	if !hasAdmissibleTask(stealee, gap) {
		return nil
	}
	q := stealee.Queued()
	if stealee.UniformQueue() {
		return q[0]
	}
	var best *sched.Task
	var bestResidual int64
	for _, t := range q {
		if t.Weight >= gap {
			continue // would not strictly shrink the gap
		}
		residual := gap - 2*t.Weight
		if residual < 0 {
			residual = -residual
		}
		if best == nil || residual < bestResidual ||
			(residual == bestResidual && t.Weight < best.Weight) {
			best, bestResidual = t, residual
		}
	}
	return best
}

var (
	_ sched.Policy     = (*Weighted)(nil)
	_ sched.TaskPicker = (*Weighted)(nil)
)
