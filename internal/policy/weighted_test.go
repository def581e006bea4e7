package policy

import (
	"math/rand/v2"
	"testing"

	"repro/internal/sched"
)

// scanClosestToHalfGap is closestToHalfGap as a full scan of the queue,
// with no use of the runqueue's totals: the reference the O(1) paths
// must agree with.
func scanClosestToHalfGap(stealee *sched.Core, gap int64) *sched.Task {
	var best *sched.Task
	var bestResidual int64
	for _, t := range stealee.Queued() {
		if t.Weight >= gap {
			continue
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

// scanHasAdmissibleTask is hasAdmissibleTask as a full scan.
func scanHasAdmissibleTask(stealee *sched.Core, gap int64) bool {
	if gap < 2 {
		return false
	}
	for _, t := range stealee.Queued() {
		if t.Weight < gap {
			return true
		}
	}
	return false
}

func TestWeightedFiltersMatchFullScans(t *testing.T) {
	// Random stealees — empty, one-weight and mixed-weight queues over
	// weights from 1 to 8192 — probed at gaps of at most 1, at twice a
	// queued weight and just around it, and at the gap an idle thief
	// sees. Weighted.CanSteal is probed through a thief that makes each
	// gap real wherever the stealee's load allows one.
	weights := []int64{1, 2, 3, 1024, 8192}
	r := rand.New(rand.NewPCG(1, 2))
	p := NewWeighted()
	m := sched.NewMachine(2)
	kinds := map[string]int{}
	for range 3000 {
		var queued []int64
		kind := []string{"empty", "uniform", "mixed"}[r.IntN(3)]
		switch n := 1 + r.IntN(6); kind {
		case "uniform":
			w := weights[r.IntN(len(weights))]
			for range n {
				queued = append(queued, w)
			}
		case "mixed":
			for range n {
				queued = append(queued, weights[r.IntN(len(weights))])
			}
		}
		var running int64
		if r.IntN(2) == 0 {
			running = weights[r.IntN(len(weights))]
		}
		m.SetFromSpec([]sched.CoreSpec{{}, {Running: running, Queued: queued}})
		stealee := m.Core(1)
		if stealee.UniformQueue() {
			kinds[kind]++
		} else {
			kinds["mixed, not uniform"]++
		}
		gaps := []int64{-1, 0, 1, stealee.WeightSum()}
		for _, w := range queued {
			gaps = append(gaps, 2*w-1, 2*w, 2*w+1, w, w+1)
		}
		for _, gap := range gaps {
			want := scanClosestToHalfGap(stealee, gap)
			if got := closestToHalfGap(stealee, gap); got != want {
				t.Fatalf("queue %v, gap %d: closestToHalfGap = %v, full scan %v", queued, gap, got, want)
			}
			if got, want := hasAdmissibleTask(stealee, gap), scanHasAdmissibleTask(stealee, gap); got != want {
				t.Fatalf("queue %v, gap %d: hasAdmissibleTask = %v, full scan %v", queued, gap, got, want)
			}
			thiefLoad := stealee.WeightSum() - gap
			if thiefLoad < 0 {
				continue
			}
			m.Core(0).Current = &sched.Task{ID: -1, Weight: thiefLoad}
			if thiefLoad == 0 {
				m.Core(0).Current = nil
			}
			if got, want := p.CanSteal(m.Core(0), stealee), want != nil; got != want {
				t.Fatalf("queue %v, gap %d: Weighted.CanSteal = %v, full scan %v", queued, gap, got, want)
			}
		}
	}
	for _, kind := range []string{"empty", "uniform", "mixed, not uniform"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s stealee was drawn", kind)
		}
	}
}
