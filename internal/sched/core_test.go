package sched

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTaskNew(t *testing.T) {
	task := NewTask(7)
	if task.ID != 7 {
		t.Errorf("ID = %d, want 7", task.ID)
	}
	if task.Weight != DefaultWeight {
		t.Errorf("Weight = %d, want %d", task.Weight, DefaultWeight)
	}
}

// TestTaskIsTwoWords pins a Task at its ID and Weight. Every verifier
// arena and every 64-task Spawn chunk scales with this size, and
// alloc_kb_per_op is the benchmark's allocation gate: a third field
// would grow both by half.
func TestTaskIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Task{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Task{}) = %d, want 16", got)
	}
}

func TestTaskNewWeighted(t *testing.T) {
	task := NewMachine(1).Spawn(0, 2048)
	if task.Weight != 2048 {
		t.Errorf("Weight = %d, want 2048", task.Weight)
	}
}

func TestTaskNewWeightedRejectsNonPositive(t *testing.T) {
	for _, w := range []int64{0, -1, -1024} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Spawn(0, %d) did not panic", w)
				}
			}()
			NewMachine(1).Spawn(0, w)
		}()
	}
}

func TestTaskString(t *testing.T) {
	if got := NewTask(5).String(); got != "task(5)" {
		t.Errorf("String = %q", got)
	}
	if got := (&Task{ID: 5, Weight: 2}).String(); got != "task(5,w=2)" {
		t.Errorf("String = %q", got)
	}
	var nilTask *Task
	if got := nilTask.String(); got != "task(nil)" {
		t.Errorf("nil String = %q", got)
	}
}

func TestCoreIdleOverloaded(t *testing.T) {
	cases := []struct {
		name       string
		current    bool
		ready      int
		idle, over bool
	}{
		{"empty", false, 0, true, false},
		{"running-only", true, 0, false, false},
		{"queued-only-1", false, 1, false, false},
		{"queued-only-2", false, 2, false, true},
		{"running-plus-1", true, 1, false, true},
		{"running-plus-3", true, 3, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Core{}
			id := TaskID(0)
			if tc.current {
				c.Current = NewTask(id)
				id++
			}
			for i := 0; i < tc.ready; i++ {
				c.Push(NewTask(id))
				id++
			}
			if got := c.Idle(); got != tc.idle {
				t.Errorf("Idle = %v, want %v", got, tc.idle)
			}
			if got := c.Overloaded(); got != tc.over {
				t.Errorf("Overloaded = %v, want %v", got, tc.over)
			}
		})
	}
}

func TestCoreNThreadsAndWeightSum(t *testing.T) {
	c := &Core{ID: 1}
	if c.NThreads() != 0 || c.WeightSum() != 0 {
		t.Fatalf("empty core: NThreads=%d WeightSum=%d", c.NThreads(), c.WeightSum())
	}
	c.Current = &Task{ID: 0, Weight: 100}
	c.Push(&Task{ID: 1, Weight: 10})
	c.Push(&Task{ID: 2, Weight: 1})
	if got := c.NThreads(); got != 3 {
		t.Errorf("NThreads = %d, want 3", got)
	}
	if got := c.WeightSum(); got != 111 {
		t.Errorf("WeightSum = %d, want 111", got)
	}
}

func TestCorePushPopFIFO(t *testing.T) {
	c := &Core{}
	for i := 0; i < 5; i++ {
		c.Push(NewTask(TaskID(i)))
	}
	for i := 0; i < 5; i++ {
		got := c.Pop()
		if got == nil || got.ID != TaskID(i) {
			t.Fatalf("Pop %d = %v, want task(%d)", i, got, i)
		}
	}
	if c.Pop() != nil {
		t.Error("Pop on empty runqueue should return nil")
	}
}

func TestCorePopTailLIFO(t *testing.T) {
	c := &Core{}
	for i := 0; i < 3; i++ {
		c.Push(NewTask(TaskID(i)))
	}
	for i := 2; i >= 0; i-- {
		got := c.PopTail()
		if got == nil || got.ID != TaskID(i) {
			t.Fatalf("PopTail = %v, want task(%d)", got, i)
		}
	}
	if c.PopTail() != nil {
		t.Error("PopTail on empty runqueue should return nil")
	}
}

func TestCorePushNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Push(nil) did not panic")
		}
	}()
	(&Core{}).Push(nil)
}

func TestCoreRemove(t *testing.T) {
	c := &Core{}
	for i := 0; i < 4; i++ {
		c.Push(NewTask(TaskID(i)))
	}
	got := c.Remove(2)
	if got == nil || got.ID != 2 {
		t.Fatalf("Remove(2) = %v", got)
	}
	if len(c.Queued()) != 3 {
		t.Fatalf("len(Queued()) = %d, want 3", len(c.Queued()))
	}
	for _, rem := range c.Queued() {
		if rem.ID == 2 {
			t.Error("task 2 still in runqueue after Remove")
		}
	}
	if c.Remove(99) != nil {
		t.Error("Remove of absent task should return nil")
	}
	c.Current = NewTask(50)
	if c.Remove(50) != nil {
		t.Error("Remove must not take the current task")
	}
}

func TestCoreScheduleLocal(t *testing.T) {
	c := &Core{}
	if c.ScheduleLocal() != nil {
		t.Error("ScheduleLocal on empty core should do nothing")
	}
	c.Push(NewTask(1))
	c.Push(NewTask(2))
	before := c.NThreads()
	got := c.ScheduleLocal()
	if got == nil || got.ID != 1 {
		t.Fatalf("ScheduleLocal = %v, want head task(1)", got)
	}
	if c.Current != got {
		t.Error("ScheduleLocal did not install the task as Current")
	}
	if c.NThreads() != before {
		t.Errorf("ScheduleLocal changed NThreads: %d -> %d", before, c.NThreads())
	}
	if c.ScheduleLocal() != nil {
		t.Error("ScheduleLocal with a Current should do nothing")
	}
}

func TestCoreString(t *testing.T) {
	c := &Core{ID: 2}
	if got := c.String(); got != "c2[run:- rq:0]" {
		t.Errorf("String = %q", got)
	}
	c.Current = NewTask(5)
	c.Push(NewTask(6))
	if got := c.String(); got != "c2[run:task(5) rq:1]" {
		t.Errorf("String = %q", got)
	}
}

// Property: for any sequence of pushes, popping everything preserves FIFO
// order and leaves the queue empty.
func TestCoreQueueProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		c := &Core{}
		for i := range ids {
			c.Push(NewTask(TaskID(i)))
		}
		for i := range ids {
			got := c.Pop()
			if got == nil || got.ID != TaskID(i) {
				return false
			}
		}
		return len(c.Queued()) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Idle and Overloaded are mutually exclusive, and a core is
// overloaded iff NThreads >= 2.
func TestCorePredicateProperty(t *testing.T) {
	f := func(hasCurrent bool, nReady uint8) bool {
		c := &Core{}
		if hasCurrent {
			c.Current = NewTask(1000)
		}
		n := int(nReady % 8)
		for i := 0; i < n; i++ {
			c.Push(NewTask(TaskID(i)))
		}
		if c.Idle() && c.Overloaded() {
			return false
		}
		return c.Overloaded() == (c.NThreads() >= 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
