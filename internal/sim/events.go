package sim

import "math"

// eventKind discriminates simulator events.
type eventKind int8

const (
	// evSliceEnd fires when a core's current task exhausts its run slice
	// (action completion or preemption quantum).
	evSliceEnd eventKind = iota
	// evWake fires when a blocked task becomes runnable.
	evWake
	// evSpawn fires when a new task arrives.
	evSpawn
	// evBalance fires a load-balancing round.
	evBalance
	// evFail fail-stops a core (see Simulator.FailAt).
	evFail
	// evRevive brings an offline core back (see Simulator.ReviveAt).
	evRevive
)

// event is one scheduled simulator event. seq breaks time ties
// deterministically (FIFO among same-time events). Events are plain
// values without pointers: the queue stores them inline, so posting one
// allocates nothing and the collector never scans the queue.
type event struct {
	time int64
	seq  uint64

	task   int64  // evSliceEnd/evWake: the task; evSpawn: index into the pending spawn descriptors
	runSeq uint64 // evSliceEnd: validity token (stale slices are ignored)
	core   int32  // evSliceEnd: the core; evSpawn: arrival core; evFail/evRevive: the core
	kind   eventKind
}

// before is the queue order: earlier time first, then posting order.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap on (time, seq), stored by value. (time,
// seq) is a total order — seq is unique — so the pop order is that of a
// stable sort on time, whatever the heap's internal layout.
type eventQueue []event

// push schedules e on the queue.
func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}

// peekTime returns the earliest event time, or math.MaxInt64 when empty.
func (q eventQueue) peekTime() int64 {
	if len(q) == 0 {
		return math.MaxInt64
	}
	return q[0].time
}
