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
// Core is a plain value-semantics model object: the verification code
// clones and mutates machines freely. Synchronization for the concurrent
// executors lives in the round executors and in internal/engine, not here.
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
	// Ready is the runqueue: tasks waiting to run on this core.
	Ready []*Task
	// Offline marks a fail-stopped core: it executes nothing, steals
	// nothing and is never chosen as a victim. Tasks still sitting on an
	// offline core are orphans (see Machine.Orphans) until a rescue or a
	// revive re-homes them. The zero value (online) keeps every healthy
	// machine byte-identical to the pre-fault model.
	Offline bool
}

// NThreads is the total number of threads owned by the core, counting the
// current task — the `load()` of Listing 1 for unweighted policies.
func (c *Core) NThreads() int {
	n := len(c.Ready)
	if c.Current != nil {
		n++
	}
	return n
}

// WeightSum is the total weight of all threads owned by the core, counting
// the current task. Weighted policies balance this quantity.
func (c *Core) WeightSum() int64 {
	var w int64
	if c.Current != nil {
		w += c.Current.Weight
	}
	for _, t := range c.Ready {
		w += t.Weight
	}
	return w
}

// Idle reports whether the core has no current task and an empty runqueue
// (§3.1: "a core that has no current thread and no thread in its
// runqueue").
func (c *Core) Idle() bool {
	return c.Current == nil && len(c.Ready) == 0
}

// Overloaded reports whether the core owns two or more threads, counting
// the current one (§3.1: "a core that has two or more threads, including
// the current thread").
func (c *Core) Overloaded() bool {
	return c.NThreads() >= 2
}

// Push appends a task to the tail of the runqueue.
func (c *Core) Push(t *Task) {
	if t == nil {
		panic("sched: Push(nil) on core " + fmt.Sprint(c.ID))
	}
	c.Ready = append(c.Ready, t)
}

// Pop removes and returns the task at the head of the runqueue, or nil if
// the runqueue is empty.
func (c *Core) Pop() *Task {
	if len(c.Ready) == 0 {
		return nil
	}
	t := c.Ready[0]
	copy(c.Ready, c.Ready[1:])
	c.Ready[len(c.Ready)-1] = nil
	c.Ready = c.Ready[:len(c.Ready)-1]
	return t
}

// PopTail removes and returns the task at the tail of the runqueue, or nil
// if the runqueue is empty. Stealing takes from the tail, matching the
// common deque discipline of work-stealing runtimes.
func (c *Core) PopTail() *Task {
	if len(c.Ready) == 0 {
		return nil
	}
	t := c.Ready[len(c.Ready)-1]
	c.Ready[len(c.Ready)-1] = nil
	c.Ready = c.Ready[:len(c.Ready)-1]
	return t
}

// Remove removes the task with the given ID from the runqueue and returns
// it, or nil if the task is not queued. The current task cannot be removed
// this way: migrating a running thread is outside the paper's model.
func (c *Core) Remove(id TaskID) *Task {
	for i, t := range c.Ready {
		if t.ID == id {
			c.Ready = append(c.Ready[:i], c.Ready[i+1:]...)
			return t
		}
	}
	return nil
}

// ScheduleLocal promotes the head of the runqueue to Current if the core
// is not running anything. It returns the newly scheduled task, or nil if
// nothing changed. This models the core's local scheduler picking work; it
// does not change NThreads or WeightSum, hence never affects the
// work-conservation predicates.
func (c *Core) ScheduleLocal() *Task {
	if c.Current != nil || len(c.Ready) == 0 {
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
	fmt.Fprintf(&b, "rq:%d]", len(c.Ready))
	return b.String()
}
