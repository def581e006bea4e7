// Code generated by scheddsl from policy "delta2_gen". DO NOT EDIT.

package policy

import "repro/internal/sched"

// Delta2Gen is the DSL policy "delta2_gen":
//
//	policy delta2_gen {
//	    load   = (self.ready.size + self.current.size)
//	    filter = ((stealee.load - self.load) >= 2)
//	    steal  = 1
//	    choose = max_load
//	}
type Delta2Gen struct{}

// Name implements sched.Policy.
func (p *Delta2Gen) Name() string { return "delta2_gen" }

// Load implements sched.Policy.
func (p *Delta2Gen) Load(c *sched.Core) int64 {
	return (int64(len(c.Queued())) + currentSize(c))
}

// CanSteal implements sched.Policy (step-1 filter).
func (p *Delta2Gen) CanSteal(thief, stealee *sched.Core) bool {
	return ((p.Load(stealee) - p.Load(thief)) >= int64(2))
}

// StealCount implements sched.Policy (step-3 sizing).
func (p *Delta2Gen) StealCount(thief, stealee *sched.Core) int {
	return int(int64(1))
}

// Choose implements sched.Policy (step-2 heuristic: max_load).
func (p *Delta2Gen) Choose(thief *sched.Core, candidates []*sched.Core) *sched.Core {
	return sched.ChooseMaxLoad(p.Load)(thief, candidates)
}
