package sched

import (
	"sync"
	"sync/atomic"
)

// ForEach calls fn(w, i) for every i in [0, n) on min(workers, n)
// goroutines — the caller is one of them — that claim indices from one
// atomic counter, so in ascending order: no goroutine is ever parked
// waiting for a slot, and a fast worker simply claims more. w is the
// index of the goroutine running the call, in [0, min(workers, n)), and
// no two concurrent calls share one, so fn may index per-worker scratch
// by w; each i is claimed at most once, so fn needs no locking for
// per-index state either. After a call returns false no goroutine claims
// another index; while every call returns true each i is claimed.
// ForEach returns once every goroutine has stopped. workers=1 runs every
// call inline on the caller, as worker 0.
func ForEach(n, workers int, fn func(w, i int) bool) {
	var claim struct { // one allocation: the goroutines share both
		next    atomic.Int64
		stopped atomic.Bool
	}
	drain := func(w int) {
		for i := int(claim.next.Add(1)) - 1; i < n && !claim.stopped.Load(); i = int(claim.next.Add(1)) - 1 {
			if !fn(w, i) {
				claim.stopped.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(w)
		}()
	}
	drain(0)
	wg.Wait()
}
