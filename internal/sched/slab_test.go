package sched

import "testing"

// A Slab's values never move: a pointer Next handed out still reads what
// was written through it after the slab grew by several chunks, and At
// returns that same pointer.
func TestSlabPointersSurviveGrowth(t *testing.T) {
	var s Slab[Task]
	var got []*Task
	for i := range 3*slabChunk + 5 {
		v := s.Next()
		if *v != (Task{}) {
			t.Fatalf("value %d handed out non-zero: %+v", i, *v)
		}
		v.ID, v.Weight = TaskID(i), int64(2*i+1)
		got = append(got, v)
	}
	for i, v := range got {
		if v.ID != TaskID(i) || v.Weight != int64(2*i+1) || s.At(i) != v {
			t.Fatalf("value %d reads %+v at %p after growth, At says %p", i, *v, v, s.At(i))
		}
	}
}

// Reset zeroes every value handed out — nothing a value points to stays
// reachable through the slab — and starts over on the same chunks: a
// reset slab hands out the same addresses again, zeroed, and refilling
// it allocates nothing.
func TestSlabResetZeroesAndReusesChunks(t *testing.T) {
	type entry struct {
		p *Task
		n int
	}
	var s Slab[entry]
	const n = 2*slabChunk + 7
	var first []*entry
	for i := range n {
		v := s.Next()
		*v = entry{p: new(Task), n: i + 1}
		first = append(first, v)
	}
	s.Reset()
	for i, v := range first {
		if *v != (entry{}) {
			t.Fatalf("value %d survived Reset: %+v", i, *v)
		}
	}
	for i := range n {
		if v := s.Next(); v != first[i] {
			t.Fatalf("value %d moved to %p after Reset, was %p", i, v, first[i])
		}
	}
	refill := func() {
		s.Reset()
		for i := range n {
			s.Next().n = i
		}
	}
	if allocs := testing.AllocsPerRun(10, refill); allocs != 0 {
		t.Errorf("refilling a reset slab allocates %.0f objects", allocs)
	}
}
