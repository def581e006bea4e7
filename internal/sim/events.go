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
// a stream kept sorted: pop merges its head with the heap top.
type eventQueue struct {
	heap []event
	// arrivals is the stream in arrivalChunk-sized chunks, addressed by
	// flat index (arrivalAt): [head, tail) are pending in (time, seq)
	// order, [:head] have fired and are zeroed, so the queue no longer
	// holds their behaviors. A chunk never moves once made.
	arrivals   [][]arrival
	head, tail int
}

// arrivalChunk is the arrival stream's growth unit: 255 records of 48
// bytes plus the allocator's 8-byte header for a pointerful object just
// fill a 12 KiB size class, where 256 would take the next, 10 % larger.
const arrivalChunk = 255

// arrivalAt returns the record at flat index i of the arrival stream.
func (q *eventQueue) arrivalAt(i int) *arrival {
	return &q.arrivals[uint(i)/arrivalChunk][uint(i)%arrivalChunk]
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
	if q.tail == len(q.arrivals)*arrivalChunk {
		q.arrivals = append(q.arrivals, make([]arrival, arrivalChunk))
	}
	i := q.tail
	q.tail++
	for ; i > q.head; i-- {
		p := q.arrivalAt(i - 1)
		if earlier(p.time, p.seq, a.time, a.seq) {
			break
		}
		*q.arrivalAt(i) = *p
	}
	*q.arrivalAt(i) = a
}

// pop removes the earliest scheduled item: an arrival (isArrival true)
// or an event. The queue must not be empty.
func (q *eventQueue) pop() (e event, a arrival, isArrival bool) {
	if q.head == q.tail {
		return q.popHeap(), a, false
	}
	head := q.arrivalAt(q.head)
	if len(q.heap) > 0 && earlier(q.heap[0].time, q.heap[0].seq, head.time, head.seq) {
		return q.popHeap(), a, false
	}
	a, *head = *head, arrival{}
	q.head++
	if q.head == q.tail {
		// Drained: later posts reuse the chunks from the front instead
		// of adding one per arrivalChunk arrivals ever fired.
		q.head, q.tail = 0, 0
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
	if q.head < q.tail {
		t = min(t, q.arrivalAt(q.head).time)
	}
	return t
}
