package sched

import (
	"slices"
	"testing"
)

func TestRemoveClearsTheVacatedSlot(t *testing.T) {
	// A long-lived machine must not pin a task the GC could free: the
	// slot a Remove shifts the queue out of — at the tail for a task in
	// the back half, at the head for one in the front half — is cleared,
	// like the ones Pop and PopTail leave.
	c := &Core{}
	for i := range 6 {
		c.Push(NewTask(TaskID(i)))
	}
	backing := c.ring[:6]
	for _, step := range []struct {
		remove TaskID
		queue  []TaskID
	}{
		{4, []TaskID{0, 1, 2, 3, 5}},
		{1, []TaskID{0, 2, 3, 5}},
		{5, []TaskID{0, 2, 3}},
		{0, []TaskID{2, 3}},
	} {
		if got := c.Remove(step.remove); got == nil || got.ID != step.remove {
			t.Fatalf("Remove(%d) = %v", step.remove, got)
		}
		if got := taskIDsOf(c.Queued()); !slices.Equal(got, step.queue) {
			t.Fatalf("queue after Remove(%d) = %v, want %v", step.remove, got, step.queue)
		}
		for i, slot := range backing {
			if slot != nil && (i < c.head() || i >= len(c.ring)) {
				t.Errorf("after Remove(%d), vacated slot %d still points at %v", step.remove, i, slot)
			}
		}
	}
	c.Pop()
	c.PopTail()
	if slices.ContainsFunc(backing, func(t *Task) bool { return t != nil }) {
		t.Errorf("Pop and PopTail left %v", backing)
	}
}

func taskIDsOf(ts []*Task) []TaskID {
	ids := make([]TaskID, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

// FuzzRunqueue drives a core's runqueue through random Push, Pop,
// PopTail, Remove, fail-with-current and CopyFrom sequences beside a
// naive slice model, and checks after every operation the queue order,
// the totals (WeightSum, MinQueuedWeight, UniformQueue), Validate, and
// that no slot outside the queue still points at a task it held.
func FuzzRunqueue(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0, 4, 0, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 5, 0, 1, 1, 1, 2, 1, 3, 2, 4, 3, 1, 0, 2, 5, 3, 0})
	f.Add([]byte{0, 4, 0, 4, 0, 4, 0, 4, 10, 3, 1, 0, 13, 0, 4, 2, 11, 1, 9, 4})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 6, 6, 6, 6, 6, 6, 6, 6, 7, 0, 1})
	weights := []int64{1, 2, 3, 1024, 8192}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m, spare := NewMachine(2), new(Machine)
		m.Core(1).Current = &Task{ID: -1, Weight: 1} // keeps core 1 busy and online
		var model []Task
		next := TaskID(0)
		newTask := func(b byte) *Task {
			next++
			return &Task{ID: next, Weight: weights[int(b)%len(weights)]}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, ops[i+1]
			c := m.Core(0)
			was := len(c.ring)
			var got, want *Task
			switch op {
			case 0, 7: // Push, twice as likely as the rest
				task := newTask(arg)
				c.Push(task)
				model = append(model, *task)
			case 1: // Pop
				got = c.Pop()
				if len(model) > 0 {
					want, model = &model[0], model[1:]
				}
			case 2: // PopTail
				got = c.PopTail()
				if n := len(model); n > 0 {
					want, model = &model[n-1], model[:n-1]
				}
			case 3, 4: // Remove a queued task, or an absent one
				id := next + 1
				if len(model) > 0 && op == 3 {
					id = model[int(arg)%len(model)].ID
				}
				got = c.Remove(id)
				if k := slices.IndexFunc(model, func(t Task) bool { return t.ID == id }); k >= 0 {
					removed := model[k]
					want, model = &removed, slices.Delete(model, k, k+1)
				}
			case 5: // fail with a current task, then revive
				cur := newTask(arg)
				c.Current = cur
				if _, err := m.ApplyFault(nil, FaultEvent{Core: 0}); err != nil {
					t.Fatal(err)
				}
				if _, err := m.ApplyFault(nil, FaultEvent{Core: 0, Revive: true}); err != nil {
					t.Fatal(err)
				}
				model = slices.Insert(model, 0, *cur)
			case 6: // carry on in a copy; the spare machine is reused
				m, spare = spare.CopyFrom(m), m
				c, was = m.Core(0), 0
			}
			if (got == nil) != (want == nil) || got != nil && (got.ID != want.ID || got.Weight != want.Weight) {
				t.Fatalf("op %d: got %v, model says %v", i/2, got, want)
			}
			checkRunqueue(t, c, model)
			if err := m.Validate(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			for k, slot := range c.ring[:max(was, len(c.ring))] {
				if slot != nil && (k < c.head() || k >= len(c.ring)) {
					t.Fatalf("op %d: slot %d outside the queue [%d:%d] still holds %v", i/2, k, c.head(), len(c.ring), slot)
				}
			}
		}
	})
}

// checkRunqueue compares c's runqueue and totals with the model queue.
func checkRunqueue(t *testing.T, c *Core, model []Task) {
	t.Helper()
	q := c.Queued()
	if len(q) != len(model) {
		t.Fatalf("queue holds %d tasks, model %d", len(q), len(model))
	}
	var sum, least int64
	uniform := true
	for i, task := range q {
		if task.ID != model[i].ID || task.Weight != model[i].Weight {
			t.Fatalf("slot %d holds %v, model task(%d,w=%d)", i, task, model[i].ID, model[i].Weight)
		}
		sum += task.Weight
		if i == 0 || task.Weight < least {
			least = task.Weight
		}
		uniform = uniform && task.Weight == q[0].Weight
	}
	if c.WeightSum() != sum || c.MinQueuedWeight() != least || c.UniformQueue() != uniform {
		t.Fatalf("WeightSum %d, MinQueuedWeight %d, UniformQueue %v; model %d, %d, %v",
			c.WeightSum(), c.MinQueuedWeight(), c.UniformQueue(), sum, least, uniform)
	}
}
