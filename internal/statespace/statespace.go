// Package statespace provides bounded enumeration and exploration
// utilities over scheduler machine states. internal/verify uses it to
// replace the paper's Leon deductive proofs with exhaustive checking:
// every lemma quantified over "all machines" is checked over all machines
// up to a bound (cores × threads × weights), and every claim about
// concurrent rounds is checked over all adversarial steal orders.
package statespace

import (
	"fmt"

	"repro/internal/sched"
)

// Universe describes a bounded set of machine states to enumerate.
type Universe struct {
	// Cores is the number of cores of every enumerated machine.
	Cores int
	// MaxPerCore bounds the threads owned by a single core.
	MaxPerCore int
	// MaxTotal bounds the total thread count (0 means Cores*MaxPerCore).
	MaxTotal int
	// Weights is the set of task weights to draw from; nil means
	// unit-weight tasks only. Weighted universes grow quickly; keep the
	// set small (≤ 2 weights) for exhaustive runs.
	Weights []int64
	// IncludeUnscheduled also enumerates states where a core has queued
	// tasks but no current task (e.g. just after its current exited).
	// These states exercise the Idle/Overloaded corner cases.
	IncludeUnscheduled bool
	// Groups optionally assigns each core to a scheduling group (and
	// NUMA node), for verifying hierarchical policies. Length must equal
	// Cores when set.
	Groups []int
	// MaxFaults bounds the fail-stop fault dimension: every machine is
	// additionally enumerated under every valid fault script of up to
	// MaxFaults fail/revive events (the empty script included, so the
	// healthy states are a subset of the fault-extended universe). A
	// script is valid when each fail targets an online core that is not
	// the last one online and each revive targets an offline core.
	// Scripts expand below the enumeration rank — the rank still
	// identifies the thread-count vector — so the shard partition and
	// witness ordering guarantees are unchanged. Zero disables the
	// dimension entirely.
	MaxFaults int
}

// Validate checks the universe's structural invariants and returns the
// first problem found, or nil — the error-returning counterpart of the
// panics Enumerate raises on malformed universes.
func (u Universe) Validate() error {
	if u.Cores <= 0 {
		return fmt.Errorf("statespace: universe with %d cores", u.Cores)
	}
	if u.MaxPerCore < 0 || u.MaxTotal < 0 {
		return fmt.Errorf("statespace: negative MaxPerCore/MaxTotal")
	}
	if u.Groups != nil && len(u.Groups) != u.Cores {
		return fmt.Errorf("statespace: %d group assignments for %d cores", len(u.Groups), u.Cores)
	}
	for _, w := range u.Weights {
		if w <= 0 {
			return fmt.Errorf("statespace: non-positive task weight %d", w)
		}
	}
	if u.MaxFaults < 0 {
		return fmt.Errorf("statespace: negative MaxFaults %d", u.MaxFaults)
	}
	return nil
}

// String renders the universe in the canonical single-line form used in
// verify.Report headers: every field in declaration order, nil slices as
// `[]`. Two universes with the same String enumerate the same states in
// the same order.
func (u Universe) String() string {
	return fmt.Sprintf("universe{cores:%d maxPerCore:%d maxTotal:%d weights:%v unscheduled:%v groups:%v maxFaults:%d}",
		u.Cores, u.MaxPerCore, u.MaxTotal, u.Weights, u.IncludeUnscheduled, u.Groups, u.MaxFaults)
}

// Canonical is the universe's content identity for memoization: String
// with the MaxTotal=0 shorthand expanded to its Cores*MaxPerCore
// meaning, so the two spellings of the same state space hash alike.
// (Report headers keep the submitted spelling; only cache keys use the
// canonical form.)
func (u Universe) Canonical() string {
	if u.MaxTotal == 0 {
		u.MaxTotal = u.Cores * u.MaxPerCore
	}
	return u.String()
}

// Size returns the number of states Enumerate will produce. It mirrors
// Enumerate's loop structure rather than a closed formula so the two can
// never disagree.
func (u Universe) Size() int {
	n := 0
	u.Enumerate(func(*sched.Machine) bool { n++; return true })
	return n
}

// Enumerate calls fn for every machine in the universe. Every call is
// handed the same machine, rebuilt in place (sched.Machine.SetFromSpec):
// fn may mutate it — and its Faults are live enumeration state, read-only
// — but must not retain it, its cores, its tasks or its fault script
// beyond the call (Clone what must outlive it). Enumeration stops early
// if fn returns false; Enumerate reports whether it ran to completion.
func (u Universe) Enumerate(fn func(*sched.Machine) bool) bool {
	return u.enumerate(0, 1, func(_ int, m *sched.Machine) bool { return fn(m) })
}

// EnumerateShard calls fn for every machine in one shard of a total-way
// partition of the universe, under Enumerate's contract (one machine,
// reused: mutate freely, do not retain). The partition splits the search
// at the top-level per-core thread-count recursion: complete thread-count
// vectors are dealt round-robin to shards in enumeration order, so the
// shards are pairwise disjoint, their union is exactly Enumerate's
// output, and concurrent shards need no coordination. EnumerateShard(0, 1, fn)
// is Enumerate(fn). Like Enumerate, it stops early when fn returns false
// and reports whether it ran to completion.
func (u Universe) EnumerateShard(shard, total int, fn func(*sched.Machine) bool) bool {
	return u.enumerate(shard, total, func(_ int, m *sched.Machine) bool { return fn(m) })
}

// EnumerateShardRank is EnumerateShard with provenance: fn also receives
// the rank — the zero-based index of the machine's thread-count vector in
// the full Enumerate order. Ranks are disjoint across the shards of one
// partition (shard s owns exactly the ranks ≡ s mod total), so a caller
// fanning shards out in parallel can merge per-shard findings back into
// the deterministic sequential order by comparing ranks.
func (u Universe) EnumerateShardRank(shard, total int, fn func(rank int, m *sched.Machine) bool) bool {
	return u.enumerate(shard, total, fn)
}

func (u Universe) enumerate(shard, total int, fn func(int, *sched.Machine) bool) bool {
	if u.Cores <= 0 {
		panic(fmt.Sprintf("statespace: universe with %d cores", u.Cores))
	}
	if total <= 0 || shard < 0 || shard >= total {
		panic(fmt.Sprintf("statespace: shard %d of %d", shard, total))
	}
	maxTotal := u.MaxTotal
	if maxTotal == 0 {
		maxTotal = u.Cores * u.MaxPerCore
	}
	weights := u.Weights
	if len(weights) == 0 {
		// Default to the canonical unit weight so enumerated states share
		// keys with machines built by sched.MachineFromLoads.
		weights = []int64{sched.DefaultWeight}
	}
	// Enumerate per-core thread counts, then (optionally) the scheduled
	// bit, then weight assignments. Only the count vectors owned by the
	// shard are expanded; walking the skipped vectors costs a few integer
	// ops each, negligible next to the expansion they gate.
	counts := make([]int, u.Cores)
	// The one machine and the per-core spec buffers every state of the
	// shard is built into.
	m := new(sched.Machine)
	specs := make([]sched.CoreSpec, u.Cores)
	rank := 0
	var rec func(core, used int) bool
	rec = func(core, used int) bool {
		if core == u.Cores {
			r := rank
			rank++
			if r%total != shard {
				return true
			}
			return u.enumerateSchedBits(counts, weights, specs, m, func(m *sched.Machine) bool {
				return fn(r, m)
			})
		}
		for n := 0; n <= u.MaxPerCore && used+n <= maxTotal; n++ {
			counts[core] = n
			if !rec(core+1, used+n) {
				return false
			}
		}
		return true
	}
	return rec(0, 0)
}

// enumerateSchedBits expands one thread-count vector into machines: for
// each loaded core, either the first thread is running (always) or — when
// IncludeUnscheduled — all threads are queued.
func (u Universe) enumerateSchedBits(counts []int, weights []int64, specs []sched.CoreSpec, m *sched.Machine, fn func(*sched.Machine) bool) bool {
	loaded := 0
	for _, n := range counts {
		if n > 0 {
			loaded++
		}
	}
	variants := 1
	if u.IncludeUnscheduled {
		variants = 1 << loaded
	}
	for v := 0; v < variants; v++ {
		ok := u.enumerateWeights(counts, v, weights, specs, m, fn)
		if !ok {
			return false
		}
	}
	return true
}

// enumerateWeights expands one (counts, scheduled-bits) pair over all
// weight assignments. To keep the space canonical, weights within a
// core's queue are non-decreasing (queue order is irrelevant to
// policies that pick tasks by weight). Every state is built into m
// through specs, whose Queued buffers are reused from state to state.
func (u Universe) enumerateWeights(counts []int, schedBits int, weights []int64, specs []sched.CoreSpec, m *sched.Machine, fn func(*sched.Machine) bool) bool {
	loadedIdx := 0
	if u.Groups != nil && len(u.Groups) != len(counts) {
		panic(fmt.Sprintf("statespace: %d group assignments for %d cores", len(u.Groups), len(counts)))
	}
	build := func(faults []sched.FaultEvent) bool {
		m.SetFromSpec(specs)
		for id, g := range u.Groups {
			m.Core(id).Group = g
			m.Core(id).Node = g
		}
		m.Faults = faults
		return fn(m)
	}
	var rec func(core int) bool
	rec = func(core int) bool {
		if core == len(counts) {
			if u.MaxFaults <= 0 {
				return build(nil)
			}
			return u.enumerateFaultScripts(build)
		}
		n := counts[core]
		if n == 0 {
			specs[core] = sched.CoreSpec{Queued: specs[core].Queued[:0]}
			return rec(core + 1)
		}
		idx := loadedIdx
		loadedIdx++
		unscheduled := u.IncludeUnscheduled && schedBits&(1<<idx) != 0
		ok := enumerateCoreWeights(n, weights, func(ws []int64) bool {
			queued := specs[core].Queued[:0]
			if unscheduled {
				specs[core] = sched.CoreSpec{Queued: append(queued, ws...)}
			} else {
				specs[core] = sched.CoreSpec{Running: ws[0], Queued: append(queued, ws[1:]...)}
			}
			return rec(core + 1)
		})
		loadedIdx--
		return ok
	}
	return rec(0)
}

// enumerateFaultScripts yields every valid fail-stop fault script of
// length 0..MaxFaults over the universe's cores, in deterministic DFS
// order (the empty script first, then each script before its
// extensions; extensions try fail(0..n-1) then revive(0..n-1)). A
// prefix of every emitted script is itself emitted, which is what lets
// the degraded-mode checkers treat "bounded recovery after the last
// event" as covering recovery after *any* event. fn receives a fresh
// slice per call (nil for the empty script).
func (u Universe) enumerateFaultScripts(fn func([]sched.FaultEvent) bool) bool {
	offline := make([]bool, u.Cores)
	online := u.Cores
	script := make([]sched.FaultEvent, 0, u.MaxFaults)
	var rec func() bool
	rec = func() bool {
		live := script
		if len(live) == 0 {
			live = nil
		}
		if !fn(live) {
			return false
		}
		if len(script) == u.MaxFaults {
			return true
		}
		for c := 0; c < u.Cores; c++ {
			if offline[c] || online == 1 {
				continue
			}
			offline[c] = true
			online--
			script = append(script, sched.FaultEvent{Core: c})
			ok := rec()
			script = script[:len(script)-1]
			offline[c] = false
			online++
			if !ok {
				return false
			}
		}
		for c := 0; c < u.Cores; c++ {
			if !offline[c] {
				continue
			}
			offline[c] = false
			online++
			script = append(script, sched.FaultEvent{Core: c, Revive: true})
			ok := rec()
			script = script[:len(script)-1]
			offline[c] = true
			online--
			if !ok {
				return false
			}
		}
		return true
	}
	return rec()
}

// enumerateCoreWeights yields every non-decreasing weight vector of length
// n drawn from weights.
func enumerateCoreWeights(n int, weights []int64, fn func([]int64) bool) bool {
	ws := make([]int64, n)
	var rec func(i, minIdx int) bool
	rec = func(i, minIdx int) bool {
		if i == n {
			return fn(ws)
		}
		for w := minIdx; w < len(weights); w++ {
			ws[i] = weights[w]
			if !rec(i+1, w) {
				return false
			}
		}
		return true
	}
	return rec(0, 0)
}

// Permutations calls fn with every permutation of [0, n), reusing one
// backing slice. fn must not retain the slice. Iteration stops early if fn
// returns false; Permutations reports whether it ran to completion.
// Classic Heap's algorithm, allocation-free per permutation.
func Permutations(n int, fn func([]int) bool) bool {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n == 0 {
		return fn(perm)
	}
	c := make([]int, n)
	if !fn(perm) {
		return false
	}
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			if !fn(perm) {
				return false
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return true
}

// Visited is a set of canonical machine keys, used for cycle detection and
// fixpoint exploration.
type Visited map[string]bool

// Add inserts the machine's key and reports whether it was new. Only a
// new key is materialized as a string.
func (v Visited) Add(m *sched.Machine) bool {
	var buf [64]byte
	k := m.AppendKey(buf[:0])
	if v[string(k)] {
		return false
	}
	v[string(k)] = true
	return true
}

// Has reports whether the machine's key is present.
func (v Visited) Has(m *sched.Machine) bool { return v[m.Key()] }
