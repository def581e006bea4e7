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

// maxCores is the widest universe Validate admits: 20! is the largest
// factorial an int64 holds, and the verifier counts the n! steal orders
// of an n-core state in an int.
const maxCores = 20

// Validate checks the universe's structural invariants and returns the
// first problem found, or nil — the error-returning counterpart of the
// panics Enumerate raises on malformed universes.
func (u Universe) Validate() error {
	if u.Cores <= 0 {
		return fmt.Errorf("statespace: universe with %d cores", u.Cores)
	}
	if u.Cores > maxCores {
		return fmt.Errorf("statespace: universe with %d cores exceeds %d: a state's %d! steal orders would overflow the verifier's schedule counter (SchedulesChecked)",
			u.Cores, maxCores, u.Cores)
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

// Enumerate calls fn for every machine in the universe. Every call is
// handed the same machine, rebuilt in place (sched.Machine.SetFromSpec):
// fn may mutate it — and its Faults are live enumeration state, read-only
// — but must not retain it, its cores, its tasks or its fault script
// beyond the call (Clone what must outlive it). Enumeration stops early
// if fn returns false; Enumerate reports whether it ran to completion.
func (u Universe) Enumerate(fn func(*sched.Machine) bool) bool {
	return u.EnumerateShard(0, 1, fn)
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
	return u.EnumerateShardRank(shard, total, func(_ int, m *sched.Machine) bool { return fn(m) })
}

// EnumerateShardRank is EnumerateShard with provenance: fn also receives
// the rank — the zero-based index of the machine's thread-count vector in
// the full Enumerate order. Ranks are disjoint across the shards of one
// partition (shard s owns exactly the ranks ≡ s mod total), so a caller
// fanning shards out in parallel can merge per-shard findings back into
// the deterministic sequential order by comparing ranks.
func (u Universe) EnumerateShardRank(shard, total int, fn func(rank int, m *sched.Machine) bool) bool {
	return new(Enumerator).EnumerateShardRank(u, shard, total, fn)
}

// unitWeights is the weight set of a universe that names none: the
// canonical unit weight, so enumerated states share keys with machines
// built by sched.MachineFromLoads. Read only.
var unitWeights = []int64{sched.DefaultWeight}

// Enumerator is the one enumeration walk, with its buffers and its
// machine kept from walk to walk: a caller that enumerates many shards,
// of one universe or of several, passes one Enumerator and allocates
// only while its buffers grow to the largest universe walked. It
// enumerates per-core thread counts, then (optionally) the scheduled
// bits, then weight assignments, then fault scripts, building every
// state into one machine. Only the count vectors owned by the shard are
// expanded; walking the skipped vectors costs a few integer ops each,
// negligible next to the expansion they gate. The zero value is ready to
// use; an Enumerator is not safe for concurrent walks.
type Enumerator struct {
	u            Universe
	shard, total int
	fn           func(int, *sched.Machine) bool
	maxTotal     int
	weights      []int64

	counts []int            // the thread-count vector being expanded
	next   int              // the rank of the next complete count vector
	rank   int              // the rank of the one being expanded
	bits   int              // its scheduled bits: the i-th loaded core queues all its threads iff bit i is set
	specs  []sched.CoreSpec // the state being built, Queued buffers reused
	ws     []int64          // the weight buffer: core c's vector is ws[c*MaxPerCore:][:counts[c]]
	m      sched.Machine    // the one machine every state is built into

	offline []bool             // the cores the fault script has failed so far
	online  int                // how many cores it leaves online
	script  []sched.FaultEvent // the fault script being extended
}

// EnumerateShardRank is Universe.EnumerateShardRank on e's buffers. The
// machine fn is handed is e's, so the contract is Enumerate's and one
// more: it is rebuilt by the next walk on e, too.
func (e *Enumerator) EnumerateShardRank(u Universe, shard, total int, fn func(rank int, m *sched.Machine) bool) bool {
	if u.Cores <= 0 {
		panic(fmt.Sprintf("statespace: universe with %d cores", u.Cores))
	}
	if total <= 0 || shard < 0 || shard >= total {
		panic(fmt.Sprintf("statespace: shard %d of %d", shard, total))
	}
	if u.Groups != nil && len(u.Groups) != u.Cores {
		panic(fmt.Sprintf("statespace: %d group assignments for %d cores", len(u.Groups), u.Cores))
	}
	e.u, e.shard, e.total, e.fn = u, shard, total, fn
	e.maxTotal, e.weights = u.MaxTotal, u.Weights
	if e.maxTotal == 0 {
		e.maxTotal = u.Cores * u.MaxPerCore
	}
	if len(e.weights) == 0 {
		e.weights = unitWeights
	}
	e.counts = resize(e.counts, u.Cores)
	e.ws = resize(e.ws, u.Cores*u.MaxPerCore)
	e.specs = resize(e.specs, u.Cores)
	e.next, e.online = 0, u.Cores
	e.offline = resize(e.offline, u.Cores)
	clear(e.offline)
	e.script = e.script[:0]
	ok := e.expandCounts(0, 0)
	e.fn = nil
	return ok
}

// resize returns s with length n, reallocated only if it is too short.
// The contents are the caller's to overwrite: every walk rewrites counts,
// ws and specs before reading them, and clears offline.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// expandCounts gives cores core.. every thread count that fits beside
// the used threads before them, and expands each complete count vector
// the shard owns.
func (e *Enumerator) expandCounts(core, used int) bool {
	if core == e.u.Cores {
		r := e.next
		e.next++
		if r%e.total != e.shard {
			return true
		}
		e.rank = r
		return e.expandSchedBits()
	}
	for n := 0; n <= e.u.MaxPerCore && used+n <= e.maxTotal; n++ {
		e.counts[core] = n
		if !e.expandCounts(core+1, used+n) {
			return false
		}
	}
	return true
}

// expandSchedBits expands one thread-count vector into scheduling
// variants: for each loaded core, either the first thread is running
// (always) or — when IncludeUnscheduled — all threads are queued.
func (e *Enumerator) expandSchedBits() bool {
	loaded := 0
	for _, n := range e.counts {
		if n > 0 {
			loaded++
		}
	}
	variants := 1
	if e.u.IncludeUnscheduled {
		variants = 1 << loaded
	}
	for v := 0; v < variants; v++ {
		e.bits = v
		if !e.expandCores(0, 0) {
			return false
		}
	}
	return true
}

// expandCores builds the specs of cores core.. over all weight
// assignments; loaded counts the loaded cores before core.
func (e *Enumerator) expandCores(core, loaded int) bool {
	if core == e.u.Cores {
		if e.u.MaxFaults <= 0 {
			return e.build(nil)
		}
		return e.expandFaults()
	}
	if e.counts[core] == 0 {
		e.specs[core] = sched.CoreSpec{Queued: e.specs[core].Queued[:0]}
		return e.expandCores(core+1, loaded)
	}
	return e.expandCoreWeights(core, loaded, 0, 0)
}

// expandCoreWeights yields every non-decreasing weight vector for core,
// filling its slice of the weight buffer from index i on with weights
// from index minIdx on. Keeping each queue's weights sorted keeps the
// space canonical: queue order is irrelevant to policies that pick tasks
// by weight.
func (e *Enumerator) expandCoreWeights(core, loaded, i, minIdx int) bool {
	ws := e.ws[core*e.u.MaxPerCore:][:e.counts[core]]
	if i == len(ws) {
		queued := e.specs[core].Queued[:0]
		if e.u.IncludeUnscheduled && e.bits&(1<<loaded) != 0 {
			e.specs[core] = sched.CoreSpec{Queued: append(queued, ws...)}
		} else {
			e.specs[core] = sched.CoreSpec{Running: ws[0], Queued: append(queued, ws[1:]...)}
		}
		return e.expandCores(core+1, loaded+1)
	}
	for w := minIdx; w < len(e.weights); w++ {
		ws[i] = e.weights[w]
		if !e.expandCoreWeights(core, loaded, i+1, w) {
			return false
		}
	}
	return true
}

// expandFaults yields every valid fail-stop fault script of length
// 0..MaxFaults over the universe's cores, in deterministic DFS order
// (the empty script first, then each script before its extensions;
// extensions try fail(0..n-1) then revive(0..n-1)). A prefix of every
// emitted script is itself emitted, which is what lets the degraded-mode
// checkers treat "bounded recovery after the last event" as covering
// recovery after *any* event. The machine's Faults is the script buffer
// itself (nil for the empty script).
func (e *Enumerator) expandFaults() bool {
	faults := e.script
	if len(faults) == 0 {
		faults = nil
	}
	if !e.build(faults) {
		return false
	}
	if len(e.script) == e.u.MaxFaults {
		return true
	}
	for c := 0; c < e.u.Cores; c++ {
		if !e.offline[c] && e.online > 1 && !e.extend(sched.FaultEvent{Core: c}) {
			return false
		}
	}
	for c := 0; c < e.u.Cores; c++ {
		if e.offline[c] && !e.extend(sched.FaultEvent{Core: c, Revive: true}) {
			return false
		}
	}
	return true
}

// extend expands the scripts that continue the current one with ev.
func (e *Enumerator) extend(ev sched.FaultEvent) bool {
	e.setOffline(ev.Core, !ev.Revive)
	e.script = append(e.script, ev)
	ok := e.expandFaults()
	e.script = e.script[:len(e.script)-1]
	e.setOffline(ev.Core, ev.Revive)
	return ok
}

func (e *Enumerator) setOffline(core int, off bool) {
	e.offline[core] = off
	if off {
		e.online--
	} else {
		e.online++
	}
}

// build rebuilds the machine as the specs describe, under the given
// fault script, and hands it to fn.
func (e *Enumerator) build(faults []sched.FaultEvent) bool {
	e.m.SetFromSpec(e.specs)
	for id, g := range e.u.Groups {
		c := e.m.Core(id)
		c.Group, c.Node = g, g
	}
	e.m.Faults = faults
	return e.fn(e.rank, &e.m)
}

// Permutations calls fn with every permutation of [0, len(perm)), laid
// out in perm; state is its scratch and must be at least as long. Both
// are overwritten and belong to the caller, so a caller that walks the
// permutations of every state of a shard passes one pair and allocates
// nothing. fn must not retain the slice. Iteration stops early if fn
// returns false; Permutations reports whether it ran to completion.
// Classic Heap's algorithm.
func Permutations(perm, state []int, fn func([]int) bool) bool {
	n := len(perm)
	for i := range perm {
		perm[i] = i
	}
	if n == 0 {
		return fn(perm)
	}
	c := state[:n]
	clear(c)
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
