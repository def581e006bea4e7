package sched

import (
	"strings"
	"testing"
	"testing/quick"
)

// MachineFromSpec builds a machine from explicit per-core specs — the
// fixture constructor of this package's tests, internal and external.
func MachineFromSpec(specs ...CoreSpec) *Machine {
	m := new(Machine)
	m.SetFromSpec(specs)
	return m
}

func TestMachineFromLoads(t *testing.T) {
	m := MachineFromLoads(0, 1, 2)
	if m.NumCores() != 3 {
		t.Fatalf("NumCores = %d, want 3", m.NumCores())
	}
	if got := m.Loads(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("Loads = %v, want [0 1 2]", got)
	}
	// Convention: the first thread of a loaded core is its current task.
	if m.Core(1).Current == nil || len(m.Core(1).Queued()) != 0 {
		t.Errorf("core 1: current=%v ready=%d", m.Core(1).Current, len(m.Core(1).Queued()))
	}
	if m.Core(2).Current == nil || len(m.Core(2).Queued()) != 1 {
		t.Errorf("core 2: current=%v ready=%d", m.Core(2).Current, len(m.Core(2).Queued()))
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMachineFromLoadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative load did not panic")
		}
	}()
	MachineFromLoads(1, -1)
}

func TestNewMachinePanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMachine(0) did not panic")
		}
	}()
	NewMachine(0)
}

func TestMachineFromSpec(t *testing.T) {
	m := MachineFromSpec(
		CoreSpec{Running: 1024, Queued: []int64{512, 256}},
		CoreSpec{},
		CoreSpec{Queued: []int64{1024}},
	)
	if got := m.Core(0).WeightSum(); got != 1792 {
		t.Errorf("core 0 WeightSum = %d, want 1792", got)
	}
	if !m.Core(1).Idle() {
		t.Error("core 1 should be idle")
	}
	// Core 2 has a queued task but nothing running: not idle.
	if m.Core(2).Idle() {
		t.Error("core 2 should not be idle")
	}
	if m.Core(2).Current != nil {
		t.Error("core 2 should have no current task")
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMachineSpawn(t *testing.T) {
	m := NewMachine(2)
	t1 := m.Spawn(0, 100)
	t2 := m.Spawn(1, 200)
	if t1.ID == t2.ID {
		t.Error("Spawn reused a task ID")
	}
	if m.TotalThreads() != 2 {
		t.Errorf("TotalThreads = %d, want 2", m.TotalThreads())
	}
	if w := m.Core(0).WeightSum() + m.Core(1).WeightSum(); w != 300 {
		t.Errorf("total weight = %d, want 300", w)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMachineIdleOverloadedSets(t *testing.T) {
	m := MachineFromLoads(0, 1, 2, 0, 5)
	var idle, over []int
	for _, c := range m.Cores {
		if c.Idle() {
			idle = append(idle, c.ID)
		}
		if c.Overloaded() {
			over = append(over, c.ID)
		}
	}
	if len(idle) != 2 || idle[0] != 0 || idle[1] != 3 {
		t.Errorf("idle cores = %v, want [0 3]", idle)
	}
	if len(over) != 2 || over[0] != 2 || over[1] != 4 {
		t.Errorf("overloaded cores = %v, want [2 4]", over)
	}
	if m.WorkConserved() {
		t.Error("idle cores beside overloaded ones must not be work-conserved")
	}
}

func TestMachineWorkConserved(t *testing.T) {
	cases := []struct {
		loads []int
		want  bool
	}{
		{[]int{0, 0, 0}, true},   // all idle, nothing to run
		{[]int{1, 1, 1}, true},   // balanced
		{[]int{0, 1, 1}, true},   // idle core but nobody overloaded
		{[]int{0, 2, 1}, false},  // idle + overloaded: violation
		{[]int{2, 2, 2}, true},   // overloaded but nobody idle
		{[]int{0, 0, 10}, false}, // gross violation
		{[]int{1}, true},         // single core is always conserved
	}
	for _, tc := range cases {
		m := MachineFromLoads(tc.loads...)
		if got := m.WorkConserved(); got != tc.want {
			t.Errorf("WorkConserved(%v) = %v, want %v", tc.loads, got, tc.want)
		}
	}
}

func TestMachineCloneIndependence(t *testing.T) {
	m := MachineFromLoads(2, 0)
	c := m.Clone()
	if c.Key() != m.Key() {
		t.Fatalf("clone key mismatch: %q vs %q", c.Key(), m.Key())
	}
	// Steal on the clone must not affect the original.
	task := c.Core(0).PopTail()
	c.Core(1).Push(task)
	if m.Core(0).NThreads() != 2 || m.Core(1).NThreads() != 0 {
		t.Error("mutating clone changed original machine")
	}
	// Spawn on clone must not collide with original IDs.
	c.Spawn(1, 1)
	if err := c.Validate(); err != nil {
		t.Errorf("clone Validate: %v", err)
	}
}

func TestMachineKeyDistinguishesStates(t *testing.T) {
	a := MachineFromLoads(0, 2)
	b := MachineFromLoads(2, 0)
	if a.Key() == b.Key() {
		t.Error("Key should distinguish which core holds the load")
	}
	// A running task and a queued task are different states.
	c := MachineFromSpec(CoreSpec{Running: 1024}, CoreSpec{})
	d := MachineFromSpec(CoreSpec{Queued: []int64{1024}}, CoreSpec{})
	if c.Key() == d.Key() {
		t.Error("Key should distinguish running from queued")
	}
}

func TestMachineKeyCanonicalizesQueueOrder(t *testing.T) {
	a := MachineFromSpec(CoreSpec{Running: 1, Queued: []int64{1, 2}})
	b := MachineFromSpec(CoreSpec{Running: 1, Queued: []int64{2, 1}})
	if a.Key() != b.Key() {
		t.Errorf("Key should canonicalize queue order: %q vs %q", a.Key(), b.Key())
	}
}

func TestMachineValidateCatchesDuplicates(t *testing.T) {
	m := NewMachine(2)
	shared := NewTask(1)
	m.Core(0).Push(shared)
	m.Core(1).Push(shared)
	if err := m.Validate(); err == nil {
		t.Error("Validate should reject a task present on two cores")
	}
	m2 := NewMachine(1)
	m2.Core(0).Push(NewTask(1))
	m2.Core(0).Queued()[0].Weight = 0
	if err := m2.Validate(); err == nil {
		t.Error("Validate should reject non-positive weights")
	}
	m3 := NewMachine(1)
	m3.Core(0).Push(NewTask(1))
	m3.Core(0).Queued()[0] = nil
	if err := m3.Validate(); err == nil {
		t.Error("Validate should reject nil queued tasks")
	}
}

func TestMachineString(t *testing.T) {
	m := MachineFromLoads(0, 1, 2)
	if got := m.String(); got != "[0 1 2]" {
		t.Errorf("String = %q", got)
	}
	if !strings.Contains(m.Key(), "|") {
		t.Errorf("Key should separate cores: %q", m.Key())
	}
}

// Property: Clone always produces a machine with an identical key and a
// valid structure, for arbitrary load vectors.
func TestMachineClonePropertyQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 6 {
			raw = raw[:6]
		}
		loads := make([]int, len(raw))
		for i, r := range raw {
			loads[i] = int(r % 5)
		}
		m := MachineFromLoads(loads...)
		c := m.Clone()
		return c.Key() == m.Key() && c.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TotalThreads is invariant under ScheduleLocal on every core.
func TestMachineScheduleLocalInvariant(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 5 {
			raw = raw[:5]
		}
		specs := make([]CoreSpec, len(raw))
		for i, r := range raw {
			specs[i] = CoreSpec{Queued: make([]int64, int(r%4))}
			for j := range specs[i].Queued {
				specs[i].Queued[j] = 1
			}
		}
		m := MachineFromSpec(specs...)
		before := m.TotalThreads()
		for _, c := range m.Cores {
			c.ScheduleLocal()
		}
		return m.TotalThreads() == before && m.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestApplyFault pins the one statement of the hotplug rule: which
// events are refused (and leave the machine untouched), how a failing
// core's threads become orphans, and what the rescue rule is offered.
func TestApplyFault(t *testing.T) {
	m := MachineFromLoads(3, 0)
	for name, ev := range map[string]FaultEvent{
		"revive online":     {Core: 1, Revive: true},
		"core out of range": {Core: 2},
		"negative core":     {Core: -1, Revive: true},
	} {
		if _, err := m.ApplyFault(nil, ev); err == nil {
			t.Errorf("%s: %v accepted", name, ev)
		}
	}
	current := m.Core(0).Current.ID
	if n, err := m.ApplyFault(nil, FaultEvent{Core: 0}); err != nil || n != 0 {
		t.Fatalf("fail(0) with no policy = %d, %v", n, err)
	}
	c := m.Core(0)
	if !c.Offline || c.Current != nil || len(c.Queued()) != 3 || c.Queued()[0].ID != current {
		t.Fatalf("after fail(0): %v, want offline with the interrupted task at the queue head", c)
	}
	before := m.Key()
	for name, ev := range map[string]FaultEvent{
		"fail offline":     {Core: 0},
		"fail last online": {Core: 1},
	} {
		if _, err := m.ApplyFault(nil, ev); err == nil {
			t.Errorf("%s: %v accepted", name, ev)
		}
	}
	if m.Key() != before {
		t.Errorf("refused events changed the machine: %s -> %s", before, m.Key())
	}
	if _, err := m.ApplyFault(nil, FaultEvent{Core: 0, Revive: true}); err != nil || c.Offline {
		t.Fatalf("revive(0): err=%v offline=%v", err, c.Offline)
	}

	// A rescue rule is offered each orphan head-first with only online
	// candidates, until it declines.
	m = MachineFromLoads(3, 0, 0)
	adopt := 2
	rescuer := delta2().(*FuncPolicy)
	rescuer.RescueFn = func(failed *Core, candidates []*Core) *Core {
		for _, cand := range candidates {
			if cand.Offline || cand == failed {
				t.Errorf("candidate %v offered for failed %v", cand, failed)
			}
		}
		if adopt == 0 {
			return nil
		}
		adopt--
		return candidates[len(candidates)-1]
	}
	if n, err := m.ApplyFault(rescuer, FaultEvent{Core: 0}); err != nil || n != 2 {
		t.Fatalf("fail(0) with a two-shot rescuer = %d, %v; want 2 rescued", n, err)
	}
	if got := m.Loads(); got[0] != 1 || got[2] != 2 || len(m.Orphans()) != 1 {
		t.Errorf("loads %v orphans %d, want [1 0 2] and 1", got, len(m.Orphans()))
	}

	// A target outside the candidates breaks the contract: panic.
	rescuer.RescueFn = func(failed *Core, _ []*Core) *Core { return failed }
	defer func() {
		if recover() == nil {
			t.Error("out-of-contract RescueTarget did not panic")
		}
	}()
	MachineFromLoads(2, 0).ApplyFault(rescuer, FaultEvent{Core: 0})
}

// TestPlace pins the placement rule's outcomes: a task bound for an
// online core stays there; one bound for an offline core goes to the
// rescue rule's pick among the online cores, or stays on the offline
// core when there is no rule, the rule declines or no core is online.
// Place leaves the machine as it found it.
func TestPlace(t *testing.T) {
	pickLast := delta2().(*FuncPolicy)
	pickLast.RescueFn = func(_ *Core, candidates []*Core) *Core { return candidates[len(candidates)-1] }
	declines := delta2() // a FuncPolicy without a RescueFn
	m := MachineFromLoads(2, 0, 1, 0)
	m.Core(0).Offline, m.Core(3).Offline = true, true
	dark := MachineFromLoads(1, 1)
	dark.Core(0).Offline, dark.Core(1).Offline = true, true
	for _, tc := range []struct {
		name       string
		p          Policy
		m          *Machine
		core, want int
	}{
		{"online", pickLast, m, 1, 1},
		{"offline, rescued", pickLast, m, 0, 2},
		{"offline, no rescue rule", nil, m, 0, 0},
		{"offline, declined", declines, m, 3, 3},
		{"offline, no core online", pickLast, dark, 1, 1},
	} {
		before := tc.m.Key()
		if got := Place(tc.p, tc.m, tc.core); got != tc.m.Core(tc.want) {
			t.Errorf("%s: Place(c%d) = c%d, want c%d", tc.name, tc.core, got.ID, tc.want)
		}
		if tc.m.Key() != before {
			t.Errorf("%s: Place changed the machine: %s -> %s", tc.name, before, tc.m.Key())
		}
	}
}
