package sim

// Views of the simulator's queue for the external tests in this
// directory (package sim_test), which drive it with workloads from
// packages that import this one.

// LiveEvents returns how many events the heap holds.
func LiveEvents(s *Simulator) int { return len(s.q.heap) }

// HeapTop returns the time of the heap's earliest event and whether it
// is a balance tick. The heap must not be empty.
func HeapTop(s *Simulator) (time int64, balance bool) {
	return s.q.heap[0].time, s.q.heap[0].kind == evBalance
}

// PendingArrivals returns how many arrivals have not fired yet.
func PendingArrivals(s *Simulator) int { return s.q.tail - s.q.head }

// NextTime returns the time of the earliest scheduled item.
func NextTime(s *Simulator) int64 { return s.q.peekTime() }
