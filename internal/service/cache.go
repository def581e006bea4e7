package service

import (
	"sync"
	"sync/atomic"

	"repro/internal/verify"
)

// resultCache is the content-addressed memo of per-obligation verify
// Results. Keys are content hashes (key.go), so entries never go stale
// — a changed policy, universe, obligation or verifier version simply
// hashes elsewhere — and only an admin flush drops them. Values are final
// merged Results from the deterministic sharded driver; replaying one
// into a report is byte-identical to re-running the checker.
type resultCache struct {
	mu      sync.RWMutex
	entries map[string]verify.Result

	// hits/misses count lookup probes: one per obligation of each
	// submission answered from the memo (lookupAll) and of each job run
	// (lookup), so no submission's keys are counted twice. The stats
	// endpoint exposes them — this is how a client observes that a
	// one-clause edit invalidated exactly the dependent obligations.
	hits   atomic.Int64
	misses atomic.Int64
}

// newResultCache builds the cache on seed — the map of entries the
// durable store recovered at startup, which the cache adopts rather than
// copies (nil for a cold or memory-only service).
func newResultCache(seed map[string]verify.Result) *resultCache {
	if seed == nil {
		seed = make(map[string]verify.Result)
	}
	return &resultCache{entries: seed}
}

// flush drops every entry and returns how many there were. The hit/miss
// counters are cumulative and survive the flush.
func (c *resultCache) flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = make(map[string]verify.Result)
	return n
}

// lookupAll answers a submission from the memo when every key is
// cached. It reads all keys under one read lock, so a concurrent flush
// cannot answer some keys and miss others, and it counts the probes as
// hits only when it answers: a submission it cannot answer counts
// nothing here, and the job that runs it probes each key once.
func (c *resultCache) lookupAll(keys []string) ([]verify.Result, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, key := range keys {
		if _, ok := c.entries[key]; !ok {
			return nil, false
		}
	}
	results := make([]verify.Result, len(keys))
	for i, key := range keys {
		results[i] = c.entries[key]
	}
	c.hits.Add(int64(len(keys)))
	return results, true
}

// lookup returns the memoized result for key, counting the probe as a
// hit or miss.
func (c *resultCache) lookup(key string) (verify.Result, bool) {
	c.mu.RLock()
	res, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return res, ok
}

// store memoizes a completed result. Aborted results are conclusions
// about the cancellation, not the policy — never memoize them.
func (c *resultCache) store(key string, res verify.Result) {
	if res.Aborted {
		return
	}
	c.mu.Lock()
	c.entries[key] = res
	c.mu.Unlock()
}

func (c *resultCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
