package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEachIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, n, n + 3} {
		ran := make([]atomic.Int32, n)
		held := make([]atomic.Int32, min(workers, n)) // calls running as each worker
		var running, peak atomic.Int32
		ForEach(n, workers, func(w, i int) bool {
			if w < 0 || w >= len(held) {
				t.Errorf("workers=%d: index %d ran as worker %d, want [0, %d)", workers, i, w, len(held))
				return true
			}
			if held[w].Add(1) != 1 {
				t.Errorf("workers=%d: two concurrent calls ran as worker %d", workers, w)
			}
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			ran[i].Add(1)
			runtime.Gosched() // let the other claimants at the counter
			running.Add(-1)
			held[w].Add(-1)
			return true
		})
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want once", workers, i, got)
			}
		}
		if got := int(peak.Load()); got > min(workers, n) {
			t.Errorf("workers=%d: %d calls ran at once", workers, got)
		}
	}
	ForEach(0, 4, func(int, int) bool { t.Error("ran a task of an empty list"); return true })
}

// After a call returns false no index is claimed: besides it, at most one
// call per other worker, claimed before it returned, still runs. On one
// worker that leaves exactly the calls up to the one that returned false.
func TestForEachStopsClaimingAfterFalse(t *testing.T) {
	const n, stop = 100, 10
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		ForEach(n, workers, func(_, i int) bool {
			calls.Add(1)
			return i != stop
		})
		if got := int(calls.Load()); got > stop+workers || workers == 1 && got != stop+1 {
			t.Errorf("workers=%d: %d calls with index %d returning false, want at most %d", workers, got, stop, stop+workers)
		}
	}
}
