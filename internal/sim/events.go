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

	task   int64  // evSliceEnd/evWake: the task
	runSeq uint64 // evSliceEnd: validity token (stale slices are ignored)
	core   int32  // evSliceEnd: the core; evFail/evRevive: the core
	kind   eventKind
}

// earlier is the queue order on (time, seq) stamps: earlier time first,
// then posting order.
func earlier(time int64, seq uint64, otime int64, oseq uint64) bool {
	if time != otime {
		return time < otime
	}
	return seq < oseq
}

// before is the queue order between two events.
func (e *event) before(o *event) bool { return earlier(e.time, e.seq, o.time, o.seq) }

// arrival is one pending task arrival (see Simulator.SpawnAt). Its seq
// comes from the same counter as the events', so arrivals and events
// share one (time, seq) order.
type arrival struct {
	time     int64
	seq      uint64
	weight   int64
	behavior Behavior
	core     int
}

// eventQueue is everything the simulator has scheduled, popped in
// (time, seq) order. (time, seq) is a total order — seq is unique — so
// the pop order is that of a stable sort on time of everything posted,
// whatever the storage.
//
// It is stored in two parts. The live events (slice ends, wakes, balance
// ticks, faults: a handful at a time) are a binary min-heap, stored by
// value. Arrivals, which a workload posts up front by the thousand, are
// a slice kept sorted: pop merges its head with the heap top.
type eventQueue struct {
	heap []event
	// arrivals are in (time, seq) order; [:next] have fired and are
	// zeroed, so the queue no longer holds their behaviors.
	arrivals []arrival
	next     int
}

// push schedules e on the heap.
func (q *eventQueue) push(e event) {
	h := append(q.heap, e)
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
	q.heap = h
}

// pushArrival schedules a on the arrival stream. It scans back from the
// tail for a's place, so arrivals posted in time order are an append.
func (q *eventQueue) pushArrival(a arrival) {
	s := append(q.arrivals, a)
	i := len(s) - 1
	for ; i > q.next; i-- {
		if p := &s[i-1]; earlier(p.time, p.seq, a.time, a.seq) {
			break
		}
		s[i] = s[i-1]
	}
	s[i] = a
	q.arrivals = s
}

// pop removes the earliest scheduled item: an arrival (isArrival true)
// or an event. The queue must not be empty.
func (q *eventQueue) pop() (e event, a arrival, isArrival bool) {
	if q.next == len(q.arrivals) {
		return q.popHeap(), a, false
	}
	head := &q.arrivals[q.next]
	if len(q.heap) > 0 && earlier(q.heap[0].time, q.heap[0].seq, head.time, head.seq) {
		return q.popHeap(), a, false
	}
	a, *head = *head, arrival{}
	q.next++
	if q.next == len(q.arrivals) {
		// Drained: later posts reuse the slice from the front instead of
		// growing it by every arrival ever fired.
		q.arrivals, q.next = q.arrivals[:0], 0
	}
	return e, a, true
}

// popHeap removes and returns the heap's earliest event. The heap must
// not be empty.
func (q *eventQueue) popHeap() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
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

// peekTime returns the earliest scheduled time, or math.MaxInt64 when
// nothing is scheduled.
func (q *eventQueue) peekTime() int64 {
	t := int64(math.MaxInt64)
	if len(q.heap) > 0 {
		t = q.heap[0].time
	}
	if q.next < len(q.arrivals) && q.arrivals[q.next].time < t {
		t = q.arrivals[q.next].time
	}
	return t
}
