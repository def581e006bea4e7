package sched

// This file implements the potential-function machinery of §4.3: the
// "absolute load difference"
//
//	d(c1,...,cn) = Σᵢ Σⱼ |load(cᵢ) − load(cⱼ)|
//
// The paper's convergence argument: if every successful steal strictly
// decreases d, then — since d ≥ 0 and steals change it by integral
// amounts — the number of successful steals is bounded, and combined with
// failure⇒success, so is the number of failures.

// PairwiseImbalance computes d under the policy's load metric. Both (i,j)
// and (j,i) are summed, as in the paper's double summation, so every
// unordered pair contributes twice. Up to 16 cores it allocates nothing.
func PairwiseImbalance(p Policy, m *Machine) int64 {
	var buf [16]int64
	loads := buf[:0]
	if n := m.NumCores(); n > len(buf) {
		loads = make([]int64, 0, n)
	}
	for _, c := range m.Cores {
		loads = append(loads, p.Load(c))
	}
	var d int64
	for i := range loads {
		for j := range loads {
			diff := loads[i] - loads[j]
			if diff < 0 {
				diff = -diff
			}
			d += diff
		}
	}
	return d
}

// PotentialBound returns an upper bound on the number of successful steals
// a policy can perform from the given state, derived from the potential
// argument: every successful steal decreases d by at least minDrop, so at
// most d/minDrop steals can happen. minDrop must be positive; for
// unit-weight tasks and single-task steals the minimum drop of the
// pairwise sum is 2 (the thief/victim pair contributes twice).
func PotentialBound(p Policy, m *Machine, minDrop int64) int64 {
	if minDrop <= 0 {
		panic("sched: PotentialBound requires a positive minimum drop")
	}
	return PairwiseImbalance(p, m) / minDrop
}
