package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Machine is the global scheduler state: one Core per CPU. The verifier
// treats machines as values (clone, mutate, compare); the simulator and
// the concurrent executor wrap a Machine with synchronization.
type Machine struct {
	Cores []*Core

	// Faults is an optional fail-stop fault script attached by the
	// state-space enumerator: event i fires at round boundary i. The
	// round executors never consult it — the verifier's degraded-mode
	// checkers (and the backends' fault schedules) apply the events
	// explicitly via ApplyFault.
	Faults []FaultEvent

	nextID TaskID // next fresh task ID for Spawn
}

// FaultEvent is one fail-stop hotplug event: core Core goes offline
// (Revive=false) or comes back online (Revive=true).
type FaultEvent struct {
	Core   int
	Revive bool
}

// String renders the event as e.g. "fail(2)" or "revive(0)".
func (e FaultEvent) String() string {
	if e.Revive {
		return fmt.Sprintf("revive(%d)", e.Core)
	}
	return fmt.Sprintf("fail(%d)", e.Core)
}

// NewMachine returns a machine with n empty cores on a flat topology.
func NewMachine(n int) *Machine {
	if n <= 0 {
		panic(fmt.Sprintf("sched: machine needs at least one core, got %d", n))
	}
	m := &Machine{Cores: make([]*Core, n)}
	for i := range m.Cores {
		m.Cores[i] = NewCore(i)
	}
	return m
}

// MachineFromLoads builds a machine where core i owns loads[i] unit-weight
// threads. If a core owns at least one thread, one of them is its current
// task and the rest sit in the runqueue — the convention used throughout
// the paper's examples (e.g. the 0/1/2 counterexample machine of §4.3).
func MachineFromLoads(loads ...int) *Machine {
	m := NewMachine(len(loads))
	for i, n := range loads {
		if n < 0 {
			panic(fmt.Sprintf("sched: negative load %d for core %d", n, i))
		}
		for j := 0; j < n; j++ {
			t := NewTask(m.nextID)
			m.nextID++
			if j == 0 {
				m.Cores[i].Current = t
			} else {
				m.Cores[i].Push(t)
			}
		}
	}
	return m
}

// CoreSpec describes one core's state for MachineFromSpec: whether a task
// is running and the weights of the queued tasks. It lets tests and the
// exhaustive checker build every corner-case state, including cores that
// have ready tasks but nothing running (e.g. just after the current task
// exited).
type CoreSpec struct {
	// Running is the weight of the current task, or 0 for none.
	Running int64
	// Queued holds the weights of the runqueue tasks, head first.
	Queued []int64
}

// MachineFromSpec builds a machine from explicit per-core specs.
func MachineFromSpec(specs ...CoreSpec) *Machine {
	m := NewMachine(len(specs))
	for i, s := range specs {
		if s.Running > 0 {
			m.Cores[i].Current = NewWeightedTask(m.nextID, s.Running)
			m.nextID++
		}
		for _, w := range s.Queued {
			m.Cores[i].Push(NewWeightedTask(m.nextID, w))
			m.nextID++
		}
	}
	return m
}

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.Cores) }

// Core returns the core with the given ID.
func (m *Machine) Core(id int) *Core { return m.Cores[id] }

// Spawn creates a fresh task with the given weight and pushes it on core
// id's runqueue, returning the task.
func (m *Machine) Spawn(id int, weight int64) *Task {
	t := NewWeightedTask(m.nextID, weight)
	m.nextID++
	m.Cores[id].Push(t)
	return t
}

// TotalThreads counts every thread on the machine.
func (m *Machine) TotalThreads() int {
	n := 0
	for _, c := range m.Cores {
		n += c.NThreads()
	}
	return n
}

// TotalWeight sums every thread weight on the machine.
func (m *Machine) TotalWeight() int64 {
	var w int64
	for _, c := range m.Cores {
		w += c.WeightSum()
	}
	return w
}

// IdleCores returns the IDs of all idle cores.
func (m *Machine) IdleCores() []int {
	var ids []int
	for _, c := range m.Cores {
		if c.Idle() {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// OverloadedCores returns the IDs of all overloaded cores.
func (m *Machine) OverloadedCores() []int {
	var ids []int
	for _, c := range m.Cores {
		if c.Overloaded() {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// WorkConserved reports whether the machine currently satisfies the
// work-conservation predicate of §3.2: no core is idle while another core
// is overloaded. Offline cores are outside the predicate — they neither
// waste capacity by idling nor count as overloaded suppliers (their
// stranded work is the degraded predicate's concern; see
// DegradedWorkConserved). The scheduler-level property (existence of a
// finite N of rounds after which this holds) is checked by
// internal/verify.
func (m *Machine) WorkConserved() bool {
	idle, over := false, false
	for _, c := range m.Cores {
		if c.Offline {
			continue
		}
		if c.Idle() {
			idle = true
		}
		if c.Overloaded() {
			over = true
		}
		if idle && over {
			return false
		}
	}
	return true
}

// DegradedWorkConserved is the wasted-cores invariant restated over the
// online cores of a degraded machine: no online core may idle while
// either an online core is overloaded or any task sits stranded on an
// offline core. Counting orphans as waiting work is what separates a
// rescue-capable policy from one that merely balances the survivors.
// On a fully-online machine it coincides with WorkConserved.
func (m *Machine) DegradedWorkConserved() bool {
	idle, work := false, false
	for _, c := range m.Cores {
		if c.Offline {
			if c.NThreads() > 0 {
				work = true
			}
			continue
		}
		if c.Idle() {
			idle = true
		}
		if c.Overloaded() {
			work = true
		}
		if idle && work {
			return false
		}
	}
	return true
}

// ApplyFault applies one hotplug event and is the one statement of the
// fail-stop validity rule: only an online core that is not the last one
// may fail, only an offline core may revive. A refused event returns an
// error and leaves the machine untouched.
//
// A failing core goes offline and its current task (if any) is demoted
// to the head of its runqueue — the interrupted task restarts first on
// revival and is first in line for rescue — so every thread it owned
// becomes an orphan; the orphans are then offered to p's rescue rule
// (Rescue; a nil or rescue-less p strands them all) and the number
// re-homed is returned. A reviving core's stranded tasks become ordinary
// runnable work again.
func (m *Machine) ApplyFault(p Policy, ev FaultEvent) (rescued int, err error) {
	if ev.Core < 0 || ev.Core >= len(m.Cores) {
		return 0, fmt.Errorf("sched: %v on a %d-core machine", ev, len(m.Cores))
	}
	c := m.Cores[ev.Core]
	switch {
	case ev.Revive && !c.Offline:
		return 0, fmt.Errorf("sched: %v: core is already online", ev)
	case ev.Revive:
		c.Offline = false
		return 0, nil
	case c.Offline:
		return 0, fmt.Errorf("sched: %v: core is already offline", ev)
	case m.OnlineCores() == 1:
		return 0, fmt.Errorf("sched: %v: refusing to fail the last online core", ev)
	}
	c.Offline = true
	if c.Current != nil {
		c.Ready = append([]*Task{c.Current}, c.Ready...)
		c.Current = nil
	}
	return Rescue(p, m, ev.Core), nil
}

// OnlineCores counts the cores currently online.
func (m *Machine) OnlineCores() int {
	n := 0
	for _, c := range m.Cores {
		if !c.Offline {
			n++
		}
	}
	return n
}

// Orphans returns the tasks stranded on offline cores, in core order.
func (m *Machine) Orphans() []*Task {
	var ts []*Task
	for _, c := range m.Cores {
		if !c.Offline {
			continue
		}
		if c.Current != nil {
			ts = append(ts, c.Current)
		}
		ts = append(ts, c.Ready...)
	}
	return ts
}

// Clone returns a deep copy of the machine. The fault script is shared
// (it is immutable once attached).
func (m *Machine) Clone() *Machine {
	nm := &Machine{Cores: make([]*Core, len(m.Cores)), Faults: m.Faults, nextID: m.nextID}
	for i, c := range m.Cores {
		nm.Cores[i] = c.Clone()
	}
	return nm
}

// Key returns a canonical encoding of the machine state for state-space
// hashing. Tasks are interchangeable up to weight, so each core is encoded
// as its current-task weight (0 if none) plus the sorted multiset of
// queued weights; offline cores carry a '!' prefix (healthy machines
// encode byte-identically to the pre-fault model). Core identity is
// preserved: policies may treat cores asymmetrically (NUMA, groups), so
// states that differ only by a core permutation are distinct keys.
func (m *Machine) Key() string {
	var b strings.Builder
	for i, c := range m.Cores {
		if i > 0 {
			b.WriteByte('|')
		}
		if c.Offline {
			b.WriteByte('!')
		}
		if c.Current != nil {
			fmt.Fprintf(&b, "%d", c.Current.Weight)
		} else {
			b.WriteByte('0')
		}
		b.WriteByte(':')
		ws := make([]int64, len(c.Ready))
		for j, t := range c.Ready {
			ws[j] = t.Weight
		}
		sort.Slice(ws, func(a, z int) bool { return ws[a] < ws[z] })
		for j, w := range ws {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", w)
		}
	}
	return b.String()
}

// Loads returns the per-core thread counts, mostly for tests and
// diagnostics.
func (m *Machine) Loads() []int {
	ls := make([]int, len(m.Cores))
	for i, c := range m.Cores {
		ls[i] = c.NThreads()
	}
	return ls
}

// String renders the machine as its per-core thread counts, e.g.
// "[0 1 2]".
func (m *Machine) String() string {
	return fmt.Sprint(m.Loads())
}

// Validate checks structural invariants: no nil tasks, no duplicate task
// IDs across the machine, positive weights. It returns an error describing
// the first violation, or nil. The round executors preserve these
// invariants; tests and the verifier call Validate after every transition.
func (m *Machine) Validate() error {
	seen := make(map[TaskID]int, m.TotalThreads())
	check := func(t *Task, core int, where string) error {
		if t.Weight <= 0 {
			return fmt.Errorf("sched: core %d %s task %d has non-positive weight %d", core, where, t.ID, t.Weight)
		}
		if prev, dup := seen[t.ID]; dup {
			return fmt.Errorf("sched: task %d appears on core %d and core %d", t.ID, prev, core)
		}
		seen[t.ID] = core
		return nil
	}
	for _, c := range m.Cores {
		if c.Current != nil {
			if err := check(c.Current, c.ID, "current"); err != nil {
				return err
			}
		}
		for _, t := range c.Ready {
			if t == nil {
				return fmt.Errorf("sched: core %d has a nil task in its runqueue", c.ID)
			}
			if err := check(t, c.ID, "queued"); err != nil {
				return err
			}
		}
	}
	return nil
}
