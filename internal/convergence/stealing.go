package convergence

import (
	"repro/internal/sched"
)

// This file bridges the Xu & Lau iterative schemes and the paper's
// work-stealing rounds, so experiment E9 can compare their convergence
// speeds on the same initial load vectors.

// roundsUntil runs optimistic concurrent rounds of the given policy
// from the initial load vector until stop holds, and returns the rounds
// taken, with maxRounds+1 as the not-converged sentinel. Orders rotate
// deterministically so repeated conflicts do not depend on a hidden RNG:
// a deterministic adversary weaker than the verifier's exhaustive one,
// but enough to exercise conflicts. A round that moves nothing ends the
// run: the first attempt of any order runs against the unchanged
// snapshot and cannot fail, so a moveless round means no core selected a
// victim and no later order will do better.
func roundsUntil(p sched.Policy, loads []int64, maxRounds int, stop func(*sched.Machine) bool) int {
	ints := make([]int, len(loads))
	for i, v := range loads {
		ints[i] = int(v)
	}
	m := sched.MachineFromLoads(ints...)
	n := m.NumCores()
	order := make([]int, n)
	for r := 0; r <= maxRounds; r++ {
		if stop(m) {
			return r
		}
		for i := range order {
			order[i] = (i + r) % n
		}
		rr := sched.ConcurrentRound(p, m, order)
		if rr.TasksMoved() == 0 {
			break
		}
	}
	return maxRounds + 1
}

// StealingRounds counts rounds until the machine is balanced to within
// tol, a max−min bound on thread counts.
func StealingRounds(p sched.Policy, loads []int64, tol int64, maxRounds int) int {
	return roundsUntil(p, loads, maxRounds, func(m *sched.Machine) bool {
		return int64(Imbalance(m.Loads())) <= tol
	})
}

// WorkConservationRounds counts rounds until no core is idle while
// another is overloaded — the paper's N.
func WorkConservationRounds(p sched.Policy, loads []int64, maxRounds int) int {
	return roundsUntil(p, loads, maxRounds, (*sched.Machine).WorkConserved)
}

// SpikeLoad builds the worst-case initial vector for n nodes: all
// `total` units on node 0 — the fork-burst that stresses convergence
// speed the most.
func SpikeLoad(n int, total int64) []int64 {
	load := make([]int64, n)
	load[0] = total
	return load
}
