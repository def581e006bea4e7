package policy

import (
	"repro/internal/sched"
	"repro/internal/topology"
)

// NewNUMAAware returns a Delta2 balancer whose step-2 choice prefers the
// topologically nearest candidate (same NUMA node first), falling back to
// the most loaded. It demonstrates the paper's central claim about the
// three-step decomposition: NUMA-aware placement lives entirely in Choose,
// so the policy inherits Delta2's work-conservation proof verbatim —
// internal/verify checks it against the identical obligations.
func NewNUMAAware(top *topology.Topology) *Delta2 {
	load := func(c *sched.Core) int64 { return int64(c.NThreads()) }
	distance := func(a, b *sched.Core) int { return top.Distance(a.ID, b.ID) }
	return &Delta2{Chooser: sched.ChooseNearest(distance, load)}
}

// NewRandomChoice returns a Delta2 balancer whose step-2 choice picks a
// pseudo-random candidate from a deterministic xorshift stream. Its
// existence in the verified set shows choice-independence of the proofs:
// even an arbitrary choice cannot break work conservation as long as the
// filter is sound.
func NewRandomChoice(seed uint64) *Delta2 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	state := seed
	return &Delta2{Chooser: func(_ *sched.Core, candidates []*sched.Core) *sched.Core {
		// xorshift64: deterministic, dependency-free randomness.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return candidates[state%uint64(len(candidates))]
	}}
}

// Null is the no-balancing baseline: its filter rejects every core, so no
// task ever migrates. It is trivially safe and maximally non-work-
// conserving; experiment E6 uses it as the "scheduler with no load
// balancer" lower bound.
type Null struct{}

// NewNull returns the no-op balancer.
func NewNull() *Null { return &Null{} }

// Name implements sched.Policy.
func (*Null) Name() string { return "null" }

// Load implements sched.Policy.
func (*Null) Load(c *sched.Core) int64 { return int64(c.NThreads()) }

// CanSteal implements sched.Policy: never.
func (*Null) CanSteal(_, _ *sched.Core) bool { return false }

// Choose implements sched.Policy. It is unreachable (no candidates ever
// pass the filter) but must still honor the contract.
func (*Null) Choose(_ *sched.Core, candidates []*sched.Core) *sched.Core {
	return candidates[0]
}

// StealCount implements sched.Policy.
func (*Null) StealCount(_, _ *sched.Core) int { return 0 }

var _ sched.Policy = (*Null)(nil)

// Delta1Aggressive steals whenever the gap is at least 1 — an
// over-aggressive filter used by the verifier's negative tests: it can
// swap a task back and forth between a load-0 and load-1 core
// (0/1 → 1/0 → 0/1 ...), so its steals do not decrease the potential and
// it fails the bounded-successes obligation even though it satisfies
// Lemma 1.
type Delta1Aggressive struct{}

// NewDelta1Aggressive returns the over-aggressive balancer.
func NewDelta1Aggressive() *Delta1Aggressive { return &Delta1Aggressive{} }

// Name implements sched.Policy.
func (*Delta1Aggressive) Name() string { return "delta1-aggressive" }

// Load implements sched.Policy.
func (*Delta1Aggressive) Load(c *sched.Core) int64 { return int64(c.NThreads()) }

// CanSteal implements sched.Policy: gap ≥ 1 — too eager.
func (p *Delta1Aggressive) CanSteal(thief, stealee *sched.Core) bool {
	return p.Load(stealee)-p.Load(thief) >= 1 && len(stealee.Queued()) > 0
}

// Choose implements sched.Policy.
func (*Delta1Aggressive) Choose(thief *sched.Core, candidates []*sched.Core) *sched.Core {
	return sched.ChooseFirst(thief, candidates)
}

// StealCount implements sched.Policy.
func (*Delta1Aggressive) StealCount(_, _ *sched.Core) int { return 1 }

var _ sched.Policy = (*Delta1Aggressive)(nil)
