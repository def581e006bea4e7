package sched

import (
	"fmt"
	"strings"
)

// Core is the scheduling state of one CPU: the task currently running (if
// any) and the runqueue of ready tasks, exactly the `Core` case class of
// Listing 1 in the paper. Node and Group carry topology information used
// only by step-2 heuristics and hierarchical policies.
//
// Core is a model object the verification code clones and mutates
// freely. Synchronization for the concurrent executors lives in the round
// executors and in internal/engine, not here.
//
// The runqueue is owned by the core: Push, Pop, PopTail and Remove
// mutate it, Queued reads it. It keeps three totals of the queued tasks —
// their weight sum, their minimum weight and how many weigh that minimum
// — so WeightSum, MinQueuedWeight and UniformQueue cost O(1). Two rules
// keep the totals right:
//
//   - a task's Weight is immutable while the task is queued;
//   - a Core is copied only through Machine.CopyFrom or Machine.Clone:
//     a value copy shares the runqueue's backing array with its source,
//     and a mutation of either corrupts the other.
//
// Machine.Validate recomputes the totals and reports any drift.
type Core struct {
	// ID is the core's index within its machine, in [0, n).
	ID int
	// Node is the NUMA node this core belongs to (0 for flat machines).
	Node int
	// Group is the scheduling group for hierarchical balancing
	// (§5 of the paper). 0 for flat machines.
	Group int
	// Current is the task currently running, or nil if none.
	Current *Task
	// Offline marks a fail-stopped core: it executes nothing, steals
	// nothing and is never chosen as a victim. Tasks still sitting on an
	// offline core are orphans (see Machine.Orphans) until a rescue or a
	// revive re-homes them. The zero value (online) keeps every healthy
	// machine byte-identical to the pre-fault model.
	Offline bool

	// ring holds the runqueue, head first, in its last n slots. The
	// slots before them are the slack Pop and Remove leave at the front,
	// all nil: Push compacts into it before it grows the array, and a
	// failing core's current task goes back into it. Keeping the count
	// rather than the head index makes NThreads one load, as a plain
	// slice's length was. n and minN are int32s so that they share a
	// word: a runqueue holds fewer than 2^31 tasks.
	ring []*Task
	n    int32 // how many tasks are queued
	minN int32 // how many queued tasks weigh min; 0 iff the queue is empty
	sum  int64 // total weight of the queued tasks
	min  int64 // least weight of a queued task; 0 when the queue is empty
}

// Queued returns the runqueue, head first. It is a read-only view, valid
// until the core's next mutation.
func (c *Core) Queued() []*Task {
	return c.ring[c.head():len(c.ring):len(c.ring)]
}

// head is the index of the runqueue's first task in ring.
func (c *Core) head() int { return len(c.ring) - int(c.n) }

// NThreads is the total number of threads owned by the core, counting the
// current task — the `load()` of Listing 1 for unweighted policies.
func (c *Core) NThreads() int {
	n := int(c.n)
	if c.Current != nil {
		n++
	}
	return n
}

// WeightSum is the total weight of all threads owned by the core, counting
// the current task. Weighted policies balance this quantity.
func (c *Core) WeightSum() int64 {
	w := c.sum
	if c.Current != nil {
		w += c.Current.Weight
	}
	return w
}

// MinQueuedWeight is the least weight of a queued task, or 0 when the
// runqueue is empty.
func (c *Core) MinQueuedWeight() int64 { return c.min }

// UniformQueue reports whether every queued task has the same weight
// (vacuously true of an empty runqueue).
func (c *Core) UniformQueue() bool { return c.minN == c.n }

// ShareDefaultQueue makes ts the core's runqueue in O(1), without
// copying or scanning it: every task in ts must weigh DefaultWeight, so
// the totals follow from len(ts) alone. The core aliases ts, so while it
// holds ts nothing may mutate it — not its own methods, not a CopyFrom or
// SetFromSpec of a machine it belongs to. A read-only view, such as a
// policy's selection view of a queue kept elsewhere, is what this is for.
func (c *Core) ShareDefaultQueue(ts []*Task) {
	n := len(ts)
	c.ring, c.n, c.minN = ts[:n:n], int32(n), int32(n)
	c.sum, c.min = int64(n)*DefaultWeight, 0
	if n > 0 {
		c.min = DefaultWeight
	}
}

// Idle reports whether the core has no current task and an empty runqueue
// (§3.1: "a core that has no current thread and no thread in its
// runqueue").
func (c *Core) Idle() bool {
	return c.Current == nil && c.n == 0
}

// Overloaded reports whether the core owns two or more threads, counting
// the current one (§3.1: "a core that has two or more threads, including
// the current thread").
func (c *Core) Overloaded() bool {
	return c.NThreads() >= 2
}

// Push appends a task to the tail of the runqueue. A full backing array
// is first compacted into the slack at its front; it grows only when the
// queue itself fills it.
func (c *Core) Push(t *Task) {
	if t == nil {
		panic("sched: Push(nil) on core " + fmt.Sprint(c.ID))
	}
	if len(c.ring) == cap(c.ring) && c.head() > 0 {
		n := copy(c.ring, c.Queued())
		clear(c.ring[n:])
		c.ring = c.ring[:n]
	}
	c.ring = append(c.ring, t)
	c.added(t.Weight)
}

// pushFront puts t back at the head of the runqueue, into the front slack
// when there is some.
func (c *Core) pushFront(t *Task) {
	if h := c.head(); h > 0 {
		c.ring[h-1] = t
	} else {
		c.ring = append(c.ring, nil)
		copy(c.ring[1:], c.ring)
		c.ring[0] = t
	}
	c.added(t.Weight)
}

// Pop removes and returns the task at the head of the runqueue, or nil if
// the runqueue is empty.
func (c *Core) Pop() *Task {
	if c.n == 0 {
		return nil
	}
	h := c.head()
	t := c.ring[h]
	c.ring[h] = nil
	c.removed(t.Weight)
	return t
}

// PopTail removes and returns the task at the tail of the runqueue, or nil
// if the runqueue is empty. Stealing takes from the tail, matching the
// common deque discipline of work-stealing runtimes.
func (c *Core) PopTail() *Task {
	if c.n == 0 {
		return nil
	}
	t := c.ring[len(c.ring)-1]
	c.dropTail()
	c.removed(t.Weight)
	return t
}

// Remove removes the task with the given ID from the runqueue and returns
// it, or nil if the task is not queued. The current task cannot be removed
// this way: migrating a running thread is outside the paper's model. The
// shorter side of the queue moves to close the gap, so taking the head
// costs what Pop does.
func (c *Core) Remove(id TaskID) *Task {
	q := c.Queued()
	for i, t := range q {
		if t.ID != id {
			continue
		}
		if i < len(q)/2 {
			copy(q[1:i+1], q[:i])
			q[0] = nil
		} else {
			copy(q[i:], q[i+1:])
			c.dropTail()
		}
		c.removed(t.Weight)
		return t
	}
	return nil
}

// dropTail forgets the last slot of ring, clearing it so the backing
// array pins no task.
func (c *Core) dropTail() {
	n := len(c.ring) - 1
	c.ring[n] = nil
	c.ring = c.ring[:n]
}

// added counts a task of weight w, just queued, into the totals.
func (c *Core) added(w int64) {
	c.n++
	c.sum += w
	c.countMin(w)
}

// countMin counts a task of weight w into the minimum and its count.
func (c *Core) countMin(w int64) {
	switch {
	case c.minN == 0 || w < c.min:
		c.min, c.minN = w, 1
	case w == c.min:
		c.minN++
	}
}

// removed takes a task of weight w, just off the runqueue, out of the
// totals. The minimum is rescanned only when the last task of that
// weight leaves, and an emptied queue starts over at the front of its
// array.
func (c *Core) removed(w int64) {
	c.n--
	c.sum -= w
	if w != c.min {
		return
	}
	if c.minN--; c.minN > 0 {
		return
	}
	c.min = 0
	if c.n == 0 {
		c.ring = c.ring[:0]
		return
	}
	for _, t := range c.Queued() {
		c.countMin(t.Weight)
	}
}

// ScheduleLocal promotes the head of the runqueue to Current if the core
// is not running anything. It returns the newly scheduled task, or nil if
// nothing changed. This models the core's local scheduler picking work; it
// does not change NThreads or WeightSum, hence never affects the
// work-conservation predicates.
func (c *Core) ScheduleLocal() *Task {
	if c.Current != nil || c.n == 0 {
		return nil
	}
	c.Current = c.Pop()
	return c.Current
}

// String renders the core as e.g. "c2[run:task(5) rq:3]".
func (c *Core) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%d[", c.ID)
	if c.Offline {
		b.WriteString("off ")
	}
	if c.Current != nil {
		fmt.Fprintf(&b, "run:%v ", c.Current)
	} else {
		b.WriteString("run:- ")
	}
	fmt.Fprintf(&b, "rq:%d]", len(c.Queued()))
	return b.String()
}
