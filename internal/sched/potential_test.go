package sched

import (
	"testing"
	"testing/quick"
)

func TestPairwiseImbalance(t *testing.T) {
	p := delta2()
	cases := []struct {
		loads []int
		want  int64
	}{
		{[]int{1, 1, 1}, 0},
		{[]int{0, 2}, 4},     // |0-2| + |2-0|
		{[]int{0, 1, 2}, 8},  // pairs (0,1)=1,(0,2)=2,(1,2)=1 each twice
		{[]int{3}, 0},        // single core
		{[]int{0, 0, 4}, 16}, // (0,4)+(0,4) = 8, twice
		// Past the 16 loads kept on the stack: one loaded core among 17
		// differs from each of the 16 idle ones by 1, twice.
		{[]int{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 32},
	}
	for _, tc := range cases {
		m := MachineFromLoads(tc.loads...)
		if got := PairwiseImbalance(p, m); got != tc.want {
			t.Errorf("PairwiseImbalance(%v) = %d, want %d", tc.loads, got, tc.want)
		}
	}
}

// stealDecreasesPotential reports whether moving `moved` tasks from a
// victim with victimLoad threads to a thief with thiefLoad strictly
// decreases the pairwise imbalance of the two-core machine — the paper's
// local criterion for stealCore.
func stealDecreasesPotential(thiefLoad, victimLoad, moved int) bool {
	p := delta2()
	before := PairwiseImbalance(p, MachineFromLoads(thiefLoad, victimLoad))
	after := PairwiseImbalance(p, MachineFromLoads(thiefLoad+moved, victimLoad-moved))
	return after < before
}

func TestStealDecreasesPotentialLocal(t *testing.T) {
	cases := []struct {
		thief, victim, moved int
		want                 bool
	}{
		{0, 2, 1, true},  // 0/2 -> 1/1: diff 2 -> 0
		{0, 3, 1, true},  // 0/3 -> 1/2: diff 3 -> 1
		{1, 2, 1, false}, // 1/2 -> 2/1: diff 1 -> 1, ping-pong!
		{0, 2, 2, false}, // 0/2 -> 2/0: full swap, diff unchanged
		{0, 4, 2, true},  // 0/4 -> 2/2
		{2, 2, 1, false}, // balanced, stealing makes it worse
		{0, 2, 0, false}, // nothing moved
		{0, 1, 1, false}, // 0/1 -> 1/0: swap
	}
	for _, tc := range cases {
		if got := stealDecreasesPotential(tc.thief, tc.victim, tc.moved); got != tc.want {
			t.Errorf("stealDecreasesPotential(%d,%d,%d) = %v, want %v",
				tc.thief, tc.victim, tc.moved, got, tc.want)
		}
	}
}

func TestDelta2StealStrictlyDecreasesGlobalPotential(t *testing.T) {
	// §4.3's second proof obligation: every successful Delta2 steal
	// strictly decreases the pairwise imbalance. Spot-check a trajectory.
	p := delta2()
	m := MachineFromLoads(0, 5, 1, 3)
	prev := PairwiseImbalance(p, m)
	for i := 0; i < 20; i++ {
		res := SequentialRound(p, m)
		if res.TasksMoved() == 0 {
			break
		}
		cur := PairwiseImbalance(p, m)
		if cur >= prev {
			t.Fatalf("round %d: potential %d -> %d did not decrease", i, prev, cur)
		}
		prev = cur
	}
	if !m.WorkConserved() {
		t.Errorf("machine not work-conserved at fixpoint: %v", m.Loads())
	}
}

func TestGreedyBuggyStealDoesNotDecreasePotential(t *testing.T) {
	// The §4.3 counterexample: a greedy steal between loads 1 and 2 keeps
	// the potential constant, which is why the livelock exists.
	if stealDecreasesPotential(1, 2, 1) {
		t.Error("the ping-pong steal must not decrease the potential")
	}
}

func TestPotentialBound(t *testing.T) {
	p := delta2()
	m := MachineFromLoads(0, 4)
	// d = 8; minimum drop per steal with unit tasks is 2... but for a
	// two-core machine each steal moves the pair 2 closer twice = drop 4.
	bound := PotentialBound(p, m, 2)
	if bound != 4 {
		t.Errorf("PotentialBound = %d, want 4", bound)
	}
	// Count actual steals to fixpoint; must be <= bound.
	steals := 0
	for i := 0; i < 20; i++ {
		res := SequentialRound(p, m)
		steals += res.Successes()
		if res.TasksMoved() == 0 {
			break
		}
	}
	if int64(steals) > bound {
		t.Errorf("observed %d steals, potential bound %d", steals, bound)
	}
}

func TestPotentialBoundPanicsOnZeroDrop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PotentialBound with zero drop did not panic")
		}
	}()
	PotentialBound(delta2(), MachineFromLoads(1), 0)
}

// Property: the pairwise imbalance is zero iff all loads are equal, and is
// always non-negative and even (each pair counted twice).
func TestPairwiseImbalanceProperty(t *testing.T) {
	p := delta2()
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 6 {
			raw = raw[:6]
		}
		loads := make([]int, len(raw))
		allEq := true
		for i, r := range raw {
			loads[i] = int(r % 5)
			if loads[i] != loads[0] {
				allEq = false
			}
		}
		m := MachineFromLoads(loads...)
		d := PairwiseImbalance(p, m)
		if d < 0 || d%2 != 0 {
			return false
		}
		return (d == 0) == allEq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a single-task steal between cores whose loads differ by >= 2
// (the Delta2 condition) always satisfies the local decrease criterion —
// the exact inductive step of the paper's bounded-successes proof.
func TestDelta2LocalDecreaseProperty(t *testing.T) {
	f := func(thief, victim uint8) bool {
		tl, vl := int(thief%16), int(victim%16)
		if vl-tl < 2 {
			return true // filter would reject; nothing to prove
		}
		return stealDecreasesPotential(tl, vl, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: global pairwise imbalance never increases across a concurrent
// Delta2 round, for any rotation order.
func TestConcurrentRoundPotentialMonotone(t *testing.T) {
	p := delta2()
	f := func(raw []uint8, rot uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 5 {
			raw = raw[:5]
		}
		loads := make([]int, len(raw))
		for i, r := range raw {
			loads[i] = int(r % 5)
		}
		m := MachineFromLoads(loads...)
		before := PairwiseImbalance(p, m)
		n := len(loads)
		order := make([]int, n)
		for i := range order {
			order[i] = (i + int(rot)) % n
		}
		ConcurrentRound(p, m, order)
		return PairwiseImbalance(p, m) <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
