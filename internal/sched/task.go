// Package sched implements the scheduler model of "Towards Proving
// Optimistic Multicore Schedulers" (Lepers et al., HotOS 2017).
//
// The model mirrors §3.1 of the paper: a machine is a set of cores, each
// with an optional current task and a runqueue of ready tasks. Cores only
// run tasks from their own runqueue; a periodic load-balancing round lets
// each core migrate ("steal") tasks from other cores. A round decomposes
// into the paper's three steps:
//
//  1. Filter — a lock-free, read-only pass that keeps only stealable cores.
//  2. Choose — pick one core among the stealable ones. All placement
//     heuristics (NUMA, cache locality, ...) live here and are irrelevant
//     to the work-conservation proof.
//  3. Steal — performed with both runqueues locked; the filter predicate is
//     re-validated because the selection made in steps 1-2 is optimistic
//     and may be stale.
//
// The package provides both a sequential round executor (§4.2, operations
// do not overlap) and a concurrent one (§4.3, selections are stale and
// steals serialize in an adversary-chosen order), plus the predicates and
// potential functions used by the proofs in internal/verify.
//
// Kernel contract. Every scheduling decision is written here, once, and
// every backend — these round executors, internal/sim, internal/engine,
// the verifier's checkers — runs this code rather than a copy of it:
// Select decides steps 1–2, DecideSteal decides step 3 (re-validation,
// sizing, the failure reason), Place decides where a task bound for a
// core lands — the core itself while it is online, else the policy's
// rescue pick — for an orphan, a spawn and a wake alike, and
// Machine.ApplyFault states which hotplug events are valid. The three
// decision functions never mutate the cores they are handed, so a caller
// may pass the live machine, a clone or a view rebuilt from its own
// counters. Select needs no lock (its view may be stale); DecideSteal's
// two views must be the cores as they are with both runqueues locked,
// which is what makes its verdict final; Place runs on whatever view the
// backend has of the online cores and the mover re-places if the adopter
// died since. ApplyFault and Steal mutate a Machine and belong to
// whoever owns it.
//
// Reuse. A Machine owns its storage — its cores, their runqueue buffers,
// the arena its tasks sit in, and the buffers its rounds fill — and one
// goroutine at a time owns the Machine. CopyFrom and SetFromSpec
// overwrite that storage in place instead of allocating a new machine, so
// they invalidate every *Core and *Task obtained from the receiver
// before the call (the source of a CopyFrom is only read, and stays
// independent of the copy). The slices the round executors return —
// SelectAll's attempts and their Candidates, a RoundResult's Attempts and
// their MovedTasks — live in the buffers of the machine the round ran on
// and are valid until that machine's next selection or round
// (ExecuteSteals leaves the attempts it is handed intact, whichever
// machine selected them); rounds on any other machine, copies included,
// leave them alone. A standalone Steal is a round of one: its MovedTasks
// replace those of m's previous round or Steal, so repeated steals reuse
// one buffer instead of growing it. A single Select draws on the same
// buffers — its Candidates are its thief's slot of SelectAll's, valid
// until that thief next selects on that view — so it allocates nothing
// and disturbs no other thief's attempt. Place gathers the view's online
// cores in the same buffers, valid until the view's next Place or
// selection. Clone still
// returns a machine that shares nothing with its source. SelectAll takes
// no snapshot: it lets a RoundObserver observe the live machine once and
// selects for every core on it — nothing mutates the machine between the
// observation and the last selection, and attempts carry core IDs only —
// so a concurrent round costs no copy. Spawn carves tasks from 64-task
// chunks that never move, so a spawned *Task stays valid until the
// machine is next the receiver of a CopyFrom or SetFromSpec.
//
// A core's runqueue keeps running totals of its tasks' weights (see
// Core), which costs two rules: a task's Weight is immutable while the
// task is queued, and a Core is copied only through CopyFrom or Clone —
// a value copy shares the runqueue's backing array with its source.
package sched

import "fmt"

// TaskID uniquely identifies a task within a Machine.
type TaskID int64

// DefaultWeight is the load weight of a task with default "niceness",
// following the Linux convention of 1024 for a nice-0 task. The simple
// Delta2 balancer (Listing 1 of the paper) ignores weights; the Weighted
// balancer balances the sum of weights.
const DefaultWeight = 1024

// Task is a schedulable entity. As in the paper's model (§3.1), a task is
// fully described by its identity and weight: two words, nothing else.
// The simulator (internal/sim) attaches execution state separately, and
// placement heuristics read the topology, not the task, so that the
// verified model stays minimal.
type Task struct {
	// ID identifies the task. IDs are unique within a machine.
	ID TaskID
	// Weight is the task's share of CPU, used by weighted policies.
	// Must be > 0. DefaultWeight for a default task.
	Weight int64
}

// NewTask returns a task with the default weight.
func NewTask(id TaskID) *Task {
	return &Task{ID: id, Weight: DefaultWeight}
}

// weightedTask returns a task with the given weight, which must be
// positive.
func weightedTask(id TaskID, weight int64) Task {
	if weight <= 0 {
		panic(fmt.Sprintf("sched: task %d weight must be positive, got %d", id, weight))
	}
	return Task{ID: id, Weight: weight}
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	if t == nil {
		return "task(nil)"
	}
	if t.Weight == DefaultWeight {
		return fmt.Sprintf("task(%d)", t.ID)
	}
	return fmt.Sprintf("task(%d,w=%d)", t.ID, t.Weight)
}
