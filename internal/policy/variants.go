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
	return &Delta2{Chooser: sched.ChooseNearest(distance, load), name: "numa-aware"}
}

// NewNull returns the registry's "null" policy, the no-balancing
// baseline.
func NewNull() sched.Policy { p, _ := New("null"); return p }
