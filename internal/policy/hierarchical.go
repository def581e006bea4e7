package policy

import (
	"repro/internal/sched"
	"repro/internal/topology"
)

// groupStats caches per-group aggregate loads for one balancing round.
// Policies that compare groups implement sched.RoundObserver and refresh
// this from the round's view, giving cached statistics exactly the
// staleness the optimistic model allows.
type groupStats struct {
	sum   []int64 // total load per group
	count []int   // cores per group
}

func (s *groupStats) reset(groups int) {
	if cap(s.sum) < groups {
		s.sum = make([]int64, groups)
		s.count = make([]int, groups)
	}
	s.sum = s.sum[:groups]
	s.count = s.count[:groups]
	for i := range s.sum {
		s.sum[i], s.count[i] = 0, 0
	}
}

func (s *groupStats) observe(view *sched.Machine, load func(*sched.Core) int64) {
	groups := 1
	for _, c := range view.Cores {
		if c.Group+1 > groups {
			groups = c.Group + 1
		}
	}
	s.reset(groups)
	for _, c := range view.Cores {
		s.sum[c.Group] += load(c)
		s.count[c.Group]++
	}
}

// avg returns the group's mean load, scaled by 1024 to stay integral.
func (s *groupStats) avg(group int) int64 {
	if s.count[group] == 0 {
		return 0
	}
	return s.sum[group] * 1024 / int64(s.count[group])
}

// Hierarchical is the §5 "remaining challenges" extension implemented
// soundly: balance between groups of cores, then inside groups. The
// filter is a *restriction* of Delta2 — a steal additionally requires the
// stealee's group to be heavier, except that an idle thief may always
// escape the hierarchy — so the potential-function argument is inherited
// unchanged, and Lemma 1 holds because idle thieves see every Delta2
// candidate:
//
//	CanSteal(t, s) = delta2(t, s) ∧ (idle(t) ∨ group(t) = group(s)
//	                                          ∨ sum(group(s)) > sum(group(t)))
//
// The idle-escape clause is the crucial difference from the buggy CFS
// averaging policy (CFSGroupBuggy): it is what preserves work
// conservation while still localizing most migrations.
type Hierarchical struct {
	stats groupStats
}

// NewHierarchical returns the two-level balancer.
func NewHierarchical() *Hierarchical { return &Hierarchical{} }

// Name implements sched.Policy.
func (p *Hierarchical) Name() string { return "hierarchical" }

// Load implements sched.Policy.
func (p *Hierarchical) Load(c *sched.Core) int64 { return int64(c.NThreads()) }

// BeginRound implements sched.RoundObserver.
func (p *Hierarchical) BeginRound(view *sched.Machine) {
	p.stats.observe(view, p.Load)
}

// CanSteal implements sched.Policy.
func (p *Hierarchical) CanSteal(thief, stealee *sched.Core) bool {
	if p.Load(stealee)-p.Load(thief) < 2 {
		return false
	}
	if thief.Idle() || thief.Group == stealee.Group {
		return true
	}
	if stealee.Group >= len(p.stats.sum) || thief.Group >= len(p.stats.sum) {
		// No observation yet (standalone filter call): fall back to the
		// safe Delta2 behaviour.
		return true
	}
	return p.stats.sum[stealee.Group] > p.stats.sum[thief.Group]
}

// Choose implements sched.Policy: same-group candidates first, then the
// most loaded, ties to the lowest ID.
func (p *Hierarchical) Choose(thief *sched.Core, candidates []*sched.Core) *sched.Core {
	var best *sched.Core
	bestKey := int64(-1 << 62)
	for _, c := range candidates {
		key := p.Load(c)
		if c.Group == thief.Group {
			key += 1 << 32 // same-group candidates dominate
		}
		if best == nil || key > bestKey || (key == bestKey && c.ID < best.ID) {
			best, bestKey = c, key
		}
	}
	return best
}

// StealCount implements sched.Policy.
func (p *Hierarchical) StealCount(_, _ *sched.Core) int { return 1 }

// AssignGroups sets each core's Group from the topology's NUMA nodes.
// Call it once on a machine before balancing with a hierarchical policy.
func AssignGroups(m *sched.Machine, top *topology.Topology) {
	for _, c := range m.Cores {
		c.Node = top.Node(c.ID)
		c.Group = top.Node(c.ID)
	}
}

var (
	_ sched.Policy        = (*Hierarchical)(nil)
	_ sched.RoundObserver = (*Hierarchical)(nil)
)
