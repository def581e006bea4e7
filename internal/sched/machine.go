package sched

import (
	"fmt"
	"slices"
	"strconv"
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

	// buf is the storage the machine reuses from call to call, allocated
	// on first use: a machine that is only cloned or compared never needs
	// any of it.
	buf *buffers
}

// buffers is what a machine owns beyond its cores and would otherwise
// allocate again on every call: the arena CopyFrom and SetFromSpec lay
// tasks out in, the slab Spawn takes tasks from, and the round
// executors' per-round slices (see round.go). It is per machine, never
// shared: a caller may still be reading one machine's round results
// while it runs rounds on another.
type buffers struct {
	tasks   []Task     // arena behind the cores' task pointers
	spawned Slab[Task] // Spawn's tasks since the machine was last rebuilt

	atts    []Attempt // SelectAll's result, indexed by core ID
	cands   []*Core   // step-1 survivors of the thief being selected for, or Place's online cores
	candIDs []int     // backing of every Attempt.Candidates, NumCores per thief
	done    []Attempt // a round's outcomes in execution order
	moved   []TaskID  // backing of every Attempt.MovedTasks of the round (or standalone Steal)
	seen    []bool    // checkOrder's duplicate detector

	specs []CoreSpec // SetFromKey's, with the weights in ws
	ws    []int64
}

func (m *Machine) scratch() *buffers {
	if m.buf == nil {
		m.buf = new(buffers)
	}
	return m.buf
}

// add copies t into the arena and returns the copy's address. reset has
// sized the arena, so the append never moves the tasks already handed out.
func (b *buffers) add(t Task) *Task {
	b.tasks = append(b.tasks, t)
	return &b.tasks[len(b.tasks)-1]
}

// reset gives m exactly `cores` cores, an empty spawn slab and an empty
// arena with room for `tasks` tasks, keeping the cores it has (with their
// runqueue buffers and layout) and the arena when it is large enough; a
// new arena at least doubles the old one, so a machine copied from a
// growing source reallocates O(log n) times. A core m lacked is flat; the
// caller overwrites the rest of every core.
func (m *Machine) reset(cores, tasks int) {
	if cores <= 0 {
		panic(fmt.Sprintf("sched: machine needs at least one core, got %d", cores))
	}
	had := len(m.Cores)
	if cores > cap(m.Cores) {
		grown := make([]*Core, cores)
		copy(grown, m.Cores[:cap(m.Cores)])
		m.Cores = grown
	}
	m.Cores = m.Cores[:cores]
	var fresh []Core // one block for all the cores m lacks
	for i := had; i < cores; i++ {
		if m.Cores[i] == nil {
			if len(fresh) == 0 {
				fresh = make([]Core, cores-i)
			}
			m.Cores[i], fresh = &fresh[0], fresh[1:]
		}
		c := m.Cores[i]
		*c = Core{ID: i, ring: c.ring[:0]}
	}
	if m.buf != nil {
		m.buf.spawned.Reset()
	}
	if tasks > 0 {
		b := m.scratch()
		if cap(b.tasks) < tasks {
			b.tasks = make([]Task, 0, max(tasks, 2*cap(b.tasks)))
		}
		b.tasks = b.tasks[:0]
	}
}

// Reset empties m into `cores` online cores, core i on node and group
// groups[i] (0 when groups is nil), with task IDs from 0 and no fault
// script, and returns m. It keeps m's cores, their runqueue buffers and
// its spawn storage; every *Core and *Task obtained from m before the
// call is invalidated. groups is only read.
func (m *Machine) Reset(cores int, groups []int) *Machine {
	if groups != nil && len(groups) != cores {
		panic(fmt.Sprintf("sched: %d group assignments for %d cores", len(groups), cores))
	}
	m.reset(cores, 0)
	m.Faults, m.nextID = nil, 0
	for i, c := range m.Cores {
		*c = Core{ID: i, ring: c.ring[:0]}
		if groups != nil {
			c.Node, c.Group = groups[i], groups[i]
		}
	}
	return m
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
func NewMachine(n int) *Machine { return new(Machine).Reset(n, nil) }

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

// CoreSpec describes one core's state for SetFromSpec: whether a task
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

// SetFromSpec rebuilds m in place as the machine specs describe — online
// cores, task IDs from 0 in core order (current task first), no fault
// script — reusing m's cores, runqueue buffers and task arena. Each core
// keeps the node and group Reset gave it; a core m lacked is flat. Every
// *Core and *Task obtained from m before the call is invalidated. specs
// is only read.
func (m *Machine) SetFromSpec(specs []CoreSpec) {
	tasks := 0
	for _, s := range specs {
		if s.Running > 0 {
			tasks++
		}
		tasks += len(s.Queued)
	}
	m.reset(len(specs), tasks)
	m.Faults, m.nextID = nil, 0
	for i, s := range specs {
		c := m.Cores[i]
		node, group := c.Node, c.Group // the layout stays
		*c = Core{ID: i, ring: c.ring[:0]}
		c.Node, c.Group = node, group
		if s.Running > 0 {
			c.Current = m.buf.add(weightedTask(m.nextID, s.Running))
			m.nextID++
		}
		for _, w := range s.Queued {
			c.Push(m.buf.add(weightedTask(m.nextID, w)))
			m.nextID++
		}
	}
}

// SetFromKey rebuilds m in place as the machine whose AppendKey encoding
// key is: AppendKey's inverse up to what a key keeps. Each core gets its
// running task's weight, its queued weights in ascending order and its
// offline mark; the rest is as SetFromSpec leaves it (the layout kept,
// task IDs from 0 in core order, no fault script). key must be an
// AppendKey encoding and is only read. Once m's buffers have grown to
// the key, the call allocates nothing.
func (m *Machine) SetFromKey(key []byte) {
	b := m.scratch()
	// A weight takes at least a byte of the key, so ws never moves while
	// the specs' Queued slices point into it.
	ws, specs := slices.Grow(b.ws[:0], len(key)), b.specs[:0]
	var spec CoreSpec
	w, start := int64(0), 0 // the weight being read; where the core's queue starts in ws
	for p := 0; p <= len(key); p++ {
		switch {
		case p == len(key) || key[p] == '|':
			if key[p-1] != ':' {
				ws = append(ws, w) // the queue's last weight
			}
			spec.Queued = ws[start:len(ws):len(ws)]
			specs, w = append(specs, spec), 0
		case key[p] == ':':
			spec.Running, w, start = w, 0, len(ws)
		case key[p] == ',':
			ws, w = append(ws, w), 0
		case key[p] != '!':
			w = 10*w + int64(key[p]-'0')
		}
	}
	b.ws, b.specs = ws, specs
	m.SetFromSpec(specs)
	core := 0
	for _, ch := range key {
		switch ch {
		case '|':
			core++
		case '!':
			m.Cores[core].Offline = true
		}
	}
}

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.Cores) }

// Core returns the core with the given ID.
func (m *Machine) Core(id int) *Core { return m.Cores[id] }

// Spawn creates a fresh task with the given weight and pushes it on core
// id's runqueue, returning the task. Tasks come from a Slab, so the
// pointer stays valid until a Reset, CopyFrom or SetFromSpec rebuilds m;
// a rebuilt machine spawns into the same storage again.
func (m *Machine) Spawn(id int, weight int64) *Task {
	t := m.scratch().spawned.Next()
	*t = weightedTask(m.nextID, weight)
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
// becomes an orphan. The orphans are then re-homed head first, each
// where Place sends it, until the first one Place leaves on the failed
// core (a nil or rescue-less p strands them all); the number re-homed is
// returned. A reviving core's stranded tasks become ordinary runnable
// work again.
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
		c.pushFront(c.Current)
		c.Current = nil
	}
	for len(c.Queued()) > 0 {
		to := Place(p, m, ev.Core)
		if to == c {
			break
		}
		to.Push(c.Pop())
		rescued++
	}
	return rescued, nil
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
		ts = append(ts, c.Queued()...)
	}
	return ts
}

// Clone returns a deep copy of the machine. The fault script is shared
// (it is immutable once attached).
func (m *Machine) Clone() *Machine {
	return new(Machine).CopyFrom(m)
}

// CopyFrom makes m a deep copy of src — task IDs, the ID counter and the
// (shared) fault script included — reusing m's cores, runqueue buffers
// and task arena, and returns m. Every *Core and *Task obtained from m
// before the call is invalidated; src is only read.
func (m *Machine) CopyFrom(src *Machine) *Machine {
	if m == src {
		return m
	}
	m.reset(len(src.Cores), src.TotalThreads())
	m.Faults, m.nextID = src.Faults, src.nextID
	for i, sc := range src.Cores {
		// Field by field: a composite literal here builds the core in a
		// zeroed stack temporary and block-copies it in, per core.
		c := m.Cores[i]
		c.ID, c.Node, c.Group, c.Offline = sc.ID, sc.Node, sc.Group, sc.Offline
		c.n, c.minN, c.sum, c.min = sc.n, sc.minN, sc.sum, sc.min
		c.Current = nil
		if sc.Current != nil {
			c.Current = m.buf.add(*sc.Current)
		}
		c.ring = c.ring[:0]
		for _, t := range sc.Queued() {
			c.ring = append(c.ring, m.buf.add(*t))
		}
	}
	return m
}

// Key returns a canonical encoding of the machine state for state-space
// hashing. Tasks are interchangeable up to weight, so each core is encoded
// as its current-task weight (0 if none) plus the sorted multiset of
// queued weights; offline cores carry a '!' prefix (healthy machines
// encode byte-identically to the pre-fault model). Core identity is
// preserved: policies may treat cores asymmetrically (NUMA, groups), so
// states that differ only by a core permutation are distinct keys.
func (m *Machine) Key() string {
	var buf [64]byte
	return string(m.AppendKey(buf[:0]))
}

// AppendKey appends the Key encoding to dst and returns the extended
// slice. It allocates only if dst must grow (or a runqueue holds more
// than 16 tasks), which is what lets the explorers look a state up
// without materializing a string.
func (m *Machine) AppendKey(dst []byte) []byte {
	var buf [16]int64
	for i, c := range m.Cores {
		if i > 0 {
			dst = append(dst, '|')
		}
		if c.Offline {
			dst = append(dst, '!')
		}
		if c.Current != nil {
			dst = appendWeight(dst, c.Current.Weight)
		} else {
			dst = append(dst, '0')
		}
		dst = append(dst, ':')
		ws := buf[:0]
		for _, t := range c.Queued() {
			// Insertion sort: runqueues are short and mostly sorted.
			ws = append(ws, t.Weight)
			for j := len(ws) - 1; j > 0 && ws[j-1] > ws[j]; j-- {
				ws[j-1], ws[j] = ws[j], ws[j-1]
			}
		}
		for j, w := range ws {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendWeight(dst, w)
		}
	}
	return dst
}

// defaultWeightKey is DefaultWeight as a key encodes it.
var defaultWeightKey = strconv.Itoa(DefaultWeight)

// appendWeight appends w to a key in decimal, the default weight — which
// nearly every key is made of — without converting it each time.
func appendWeight(dst []byte, w int64) []byte {
	if w == DefaultWeight {
		return append(dst, defaultWeightKey...)
	}
	return strconv.AppendInt(dst, w, 10)
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
// IDs across the machine, positive weights, and each core's runqueue
// totals (weight sum, minimum weight, how many weigh the minimum) equal
// to what its queue holds. It returns an error describing the first
// violation, or nil. The round executors preserve these invariants; tests
// and the verifier call Validate after every transition.
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
		if c.n < 0 || int(c.n) > len(c.ring) {
			return fmt.Errorf("sched: core %d counts %d queued tasks in %d slots", c.ID, c.n, len(c.ring))
		}
		want := Core{}
		for _, t := range c.Queued() {
			if t == nil {
				return fmt.Errorf("sched: core %d has a nil task in its runqueue", c.ID)
			}
			if err := check(t, c.ID, "queued"); err != nil {
				return err
			}
			want.added(t.Weight)
		}
		if c.sum != want.sum || c.min != want.min || c.minN != want.minN {
			return fmt.Errorf("sched: core %d runqueue totals (sum %d, min %d ×%d) disagree with its queue (sum %d, min %d ×%d)",
				c.ID, c.sum, c.min, c.minN, want.sum, want.min, want.minN)
		}
	}
	return nil
}
