package policy

import (
	"repro/internal/sched"
)

// CFSGroupBuggy models the "Group Imbalance" bug of Lozi et al. (EuroSys
// 2016, "The Linux Scheduler: a Decade of Wasted Cores"), the motivating
// failure of this paper's introduction: CFS compares scheduling groups by
// their *average* load, so a group containing one very heavy thread and
// several idle cores looks as loaded as a group of uniformly busy cores,
// and the idle cores never steal across groups.
//
// The filter:
//
//   - same group: weighted Delta2 (intra-group balancing works fine);
//   - different group: requires avg(group(stealee)) > avg(group(thief)),
//     with no idle-thief escape — the bug.
//
// Witness state (experiment E6): group 0 = {idle core, core running one
// weight-8192 thread}, group 1 = {two cores each running two weight-1024
// threads}. avg(g0) = 4096 > avg(g1) = 2048, so the idle core refuses to
// steal from the overloaded group 1 forever: a permanent work-conservation
// violation that Delta2 and Hierarchical resolve in one round.
type CFSGroupBuggy struct {
	stats groupStats
}

// NewCFSGroupBuggy returns the group-imbalance-bugged balancer.
func NewCFSGroupBuggy() *CFSGroupBuggy { return &CFSGroupBuggy{} }

// Name implements sched.Policy.
func (p *CFSGroupBuggy) Name() string { return "cfs-group-buggy" }

// Load implements sched.Policy: weight sums, as CFS balances load, not
// thread counts — that is precisely what lets one heavy thread mask idle
// cores.
func (p *CFSGroupBuggy) Load(c *sched.Core) int64 { return c.WeightSum() }

// BeginRound implements sched.RoundObserver.
func (p *CFSGroupBuggy) BeginRound(view *sched.Machine) {
	p.stats.observe(view, p.Load)
}

// CanSteal implements sched.Policy: the buggy averaged filter.
func (p *CFSGroupBuggy) CanSteal(thief, stealee *sched.Core) bool {
	gap := p.Load(stealee) - p.Load(thief)
	if thief.Group == stealee.Group {
		// Intra-group: sound weighted balancing; require a queued task
		// small enough to shrink the gap.
		return hasAdmissibleTask(stealee, gap)
	}
	if stealee.Group >= len(p.stats.sum) || thief.Group >= len(p.stats.sum) {
		return false
	}
	// Inter-group: compare averages. No idle escape — the bug.
	if p.stats.avg(stealee.Group) <= p.stats.avg(thief.Group) {
		return false
	}
	return hasAdmissibleTask(stealee, gap)
}

// hasAdmissibleTask reports whether stealee queues a task whose migration
// strictly shrinks the gap (the sound weighted-steal condition, 0<w<gap):
// whether its lightest queued task weighs less than the gap.
func hasAdmissibleTask(stealee *sched.Core, gap int64) bool {
	w := stealee.MinQueuedWeight() // 0 when nothing is queued
	return 0 < w && w < gap
}

// Choose implements sched.Policy: the most loaded candidate.
func (p *CFSGroupBuggy) Choose(thief *sched.Core, candidates []*sched.Core) *sched.Core {
	return sched.ChooseMaxLoad(p.Load)(thief, candidates)
}

// StealCount implements sched.Policy.
func (p *CFSGroupBuggy) StealCount(_, _ *sched.Core) int { return 1 }

// PickTask implements sched.TaskPicker: the admissible queued task
// closest to gap/2, like Weighted.
func (p *CFSGroupBuggy) PickTask(thief, stealee *sched.Core) *sched.Task {
	gap := p.Load(stealee) - p.Load(thief)
	if gap < 2 {
		return nil
	}
	return closestToHalfGap(stealee, gap)
}

var (
	_ sched.Policy        = (*CFSGroupBuggy)(nil)
	_ sched.RoundObserver = (*CFSGroupBuggy)(nil)
	_ sched.TaskPicker    = (*CFSGroupBuggy)(nil)
)
