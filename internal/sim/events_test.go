package sim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// tagBehavior is a comparable behavior, so a popped arrival can be
// checked for identity against the one posted.
type tagBehavior int64

func (tagBehavior) Next(int64, *RNG) Action { return Action{RunFor: 1} }

// posted is the reference model's record of one scheduled item.
type posted struct {
	ev        event
	arr       arrival
	isArrival bool
}

func (p *posted) stamp() (int64, uint64) {
	if p.isArrival {
		return p.arr.time, p.arr.seq
	}
	return p.ev.time, p.ev.seq
}

// replayReach is how much of the arrival stream's chunking a replay
// exercised.
type replayReach struct {
	chunks    int // most chunks the stream held
	crossings int // out-of-order posts that shifted a record into the next chunk
	restarts  int // posts that reused the chunks of a drained stream
}

// replayEventOrder drives a queue with the operations ops encodes and
// checks every pop against the specification: the first of a stable sort
// on (time, seq) of everything still pending, which ref keeps by sorted
// insertion (stamps are unique). Each op byte picks one step — a pop, a
// heap post, an arrival at a time drawn from the next byte, an arrival
// at the time just popped (a mid-run SpawnAt(Clock(), …)), a burst of
// up to 256 arrivals out of time order (op%16 == 14, sized and strided
// by the next two bytes) or, for 255, a drain of everything pending —
// and the queue is drained at the end. Times are drawn from a narrow
// range, so equal-time runs and out-of-order arrivals are the common
// case.
func replayEventOrder(tb testing.TB, ops []byte) replayReach {
	tb.Helper()
	var q eventQueue
	var ref []posted
	var seq uint64
	var now int64
	var reach replayReach
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	post := func(p posted) {
		t, sq := p.stamp()
		i := sort.Search(len(ref), func(i int) bool {
			ti, si := ref[i].stamp()
			return earlier(t, sq, ti, si)
		})
		ref = slices.Insert(ref, i, p)
		if !p.isArrival {
			q.push(p.ev)
			return
		}
		if q.tail == 0 && len(q.arrivals) > 0 {
			reach.restarts++
		}
		shifted := 0 // pending arrivals that sort after p
		for _, r := range ref[i+1:] {
			if r.isArrival {
				shifted++
			}
		}
		if last := q.tail; shifted > 0 && (last-shifted)/arrivalChunk != last/arrivalChunk {
			reach.crossings++
		}
		q.pushArrival(p.arr)
		reach.chunks = max(reach.chunks, len(q.arrivals))
	}
	pop := func() {
		want := ref[0]
		wantTime, _ := want.stamp()
		if got := q.peekTime(); got != wantTime {
			tb.Fatalf("peekTime = %d, want %d", got, wantTime)
		}
		head := q.head
		e, a, isArrival := q.pop()
		switch {
		case isArrival != want.isArrival:
			tb.Fatalf("pop = (%+v, %+v, arrival %v), want %+v", e, a, isArrival, want)
		case isArrival && a != want.arr:
			tb.Fatalf("pop = arrival %+v, want %+v", a, want.arr)
		case !isArrival && e != want.ev:
			tb.Fatalf("pop = event %+v, want %+v", e, want.ev)
		}
		if isArrival && *q.arrivalAt(head) != (arrival{}) {
			tb.Fatalf("the fired arrival still holds %+v", *q.arrivalAt(head))
		}
		ref = ref[1:]
		now = wantTime
	}
	newArrival := func(t int64, op byte) posted {
		seq++
		return posted{isArrival: true, arr: arrival{time: t, seq: seq, weight: int64(op), behavior: tagBehavior(seq), core: int(op % 8)}}
	}
	for len(ops) > 0 {
		op := next()
		switch {
		case op == 255:
			for len(ref) > 0 {
				pop()
			}
			continue
		case op%16 == 14:
			n, stride := int(next())+1, int(next()|1)
			for i := range n {
				post(newArrival(now+int64(i*stride%12), op))
			}
			continue
		case op%4 == 0:
			if len(ref) > 0 {
				pop()
			}
			continue
		}
		t := now + int64(next()%12)
		switch op % 4 {
		case 1:
			seq++
			post(posted{ev: event{time: t, seq: seq, task: int64(op), runSeq: seq * 7, core: int32(op % 8), kind: eventKind(op % 5)}})
		case 2:
			post(newArrival(t, op))
		case 3:
			post(newArrival(now, op))
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if len(q.heap) != 0 || q.head != q.tail || q.peekTime() != math.MaxInt64 {
		tb.Fatalf("drained queue holds %d events and %d arrivals, peekTime %d",
			len(q.heap), q.tail-q.head, q.peekTime())
	}
	return reach
}

// chunkedOps is an op stream that takes the arrival stream past three
// chunks: four bursts of 256 out-of-order arrivals with pops and single
// posts between them, a drain, and then arrivals that restart the
// drained stream.
func chunkedOps() []byte {
	var ops []byte
	for i := range 4 {
		ops = append(ops, 14, 255, byte(5+2*i), 0, 2, 7, 1, 3, 6, 3)
	}
	ops = append(ops, 255, 2, 4, 3, 0, 14, 40, 3, 0, 0)
	return ops
}

// The queue against its specification: under any interleaving of heap
// posts, arrivals (in and out of time order, and at the time just
// popped) and pops, pop returns what a stable sort on (time, seq) of the
// pending items would put first — earliest time, and among equal times
// the one posted first. The replays between them fill more than three
// arrival chunks, shift records across chunk boundaries and restart
// drained streams.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	var reach replayReach
	for seed := int64(1); seed <= 50; seed++ {
		ops := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(ops)
		r := replayEventOrder(t, ops)
		reach.chunks = max(reach.chunks, r.chunks)
		reach.crossings += r.crossings
		reach.restarts += r.restarts
	}
	t.Logf("random replays reached %+v", reach)
	if reach.chunks < 3 || reach.crossings == 0 || reach.restarts == 0 {
		t.Errorf("random replays reached %+v; want ≥ 3 chunks, a crossing and a restart", reach)
	}
	if r := replayEventOrder(t, chunkedOps()); r.chunks < 4 || r.crossings == 0 || r.restarts == 0 {
		t.Errorf("chunkedOps reached %+v; want ≥ 4 chunks, a crossing and a restart", r)
	}
}

func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{1, 3, 2, 5, 3, 0, 0, 1, 0, 2, 11, 0, 3, 0})
	f.Add([]byte{2, 9, 2, 1, 2, 5, 1, 1, 0, 3, 0, 0, 0})
	f.Add(chunkedOps())
	f.Fuzz(func(t *testing.T, ops []byte) {
		replayEventOrder(t, ops)
	})
}

func TestEventQueueEqualTimesAreFIFO(t *testing.T) {
	var q eventQueue
	for i := 1; i <= 100; i++ {
		if i%3 == 0 {
			q.pushArrival(arrival{time: 7, seq: uint64(i), weight: int64(i), behavior: tagBehavior(i)})
		} else {
			q.push(event{time: 7, seq: uint64(i), task: int64(i)})
		}
	}
	for i := 1; i <= 100; i++ {
		e, a, isArrival := q.pop()
		got := e.task
		if isArrival {
			got = a.weight
		}
		if got != int64(i) || isArrival != (i%3 == 0) {
			t.Fatalf("pop %d returned the item posted %d-th (arrival %v)", i, got, isArrival)
		}
	}
}

// A steady-state window — slice ends, quantum preemptions, balancing
// rounds in which nothing can be stolen — runs without allocating: events
// are values in a heap that has reached its size, task state is in the
// slab, the round runs in the machine's buffers and the steal order in
// the simulator's.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, mode := range []RoundMode{RoundConcurrent, RoundSequential} {
		s := newSim(8, func(c *Config) { c.Mode = mode })
		for core := 0; core < 8; core++ {
			// Loads 2 and 3: never a gap of two, always someone to preempt.
			for i := 0; i < 2+core%2; i++ {
				s.SpawnAt(0, core, 1024, RunForever(700+int64(100*i)))
			}
		}
		until := int64(50_000)
		before := s.Run(until) // warm-up: the queue, runqueues and round buffers reach their size
		allocs := testing.AllocsPerRun(20, func() {
			until += 20_000 // five rounds and some 150 slices per window
			s.Run(until)
		})
		after := s.Run(until)
		if after.Preemptions == before.Preemptions || after.Rounds == before.Rounds {
			t.Fatalf("mode %d: the window ran no preemption or no round — fixture broken: %v -> %v", mode, before, after)
		}
		if after.Steals != 0 {
			t.Fatalf("mode %d: %d steals in a balanced machine — fixture broken", mode, after.Steals)
		}
		if allocs != 0 {
			t.Errorf("mode %d: a steady-state window allocates %v times", mode, allocs)
		}
	}
}

// An arrival's behavior is the task's from the moment it spawns: the
// arrival stream must not pin it for the simulator's lifetime.
func TestSpawnedDescriptorReleasesBehavior(t *testing.T) {
	s := newSim(2)
	s.SpawnAt(0, 0, 1024, RunOnce(100))
	s.SpawnAt(5000, 1, 1024, RunOnce(100))
	s.Run(1000)
	if s.q.head != 1 || s.q.arrivalAt(0).behavior != nil {
		t.Error("the fired arrival still holds its behavior after the spawn")
	}
	if s.q.arrivalAt(1).behavior == nil {
		t.Error("the pending arrival lost its behavior before the spawn")
	}
	if st := s.state(0); st.status != statusExited || st.behavior != nil || st.task != nil {
		t.Errorf("exited task still holds its behavior or model task: %+v", st)
	}
	if st := s.Run(10_000); st.Completed != 2 {
		t.Errorf("Completed = %d, want 2", st.Completed)
	}
}

// Posting arrivals in time order allocates one chunk per arrivalChunk
// arrivals and a few growths of the chunk list — no regrowth copies of
// the records themselves: 10 000 SpawnAts allocate no more objects than
// chunks plus a constant, and no more bytes than those chunks plus 8 KiB
// (the chunk list and the allocator's rounding).
func TestSpawnAtAllocatesPerChunk(t *testing.T) {
	const n, slack = 10_000, 16
	b := RunOnce(100)
	spawn := func() *Simulator {
		s := newSim(2)
		for i := range n {
			s.SpawnAt(int64(i), i%2, 1024, b)
		}
		return s
	}
	measure := func(f func() *Simulator) (objects, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	baseObjects, baseBytes := measure(func() *Simulator { return newSim(2) })
	objects, bytes := measure(spawn)
	objects, bytes = objects-baseObjects, bytes-baseBytes

	chunks := uint64((n + arrivalChunk - 1) / arrivalChunk)
	chunkBytes := chunks * arrivalChunk * uint64(unsafe.Sizeof(arrival{}))
	t.Logf("%d SpawnAts: %d objects, %d bytes (%d chunks of %d bytes)", n, objects, bytes, chunks, chunkBytes/chunks)
	if objects > chunks+slack {
		t.Errorf("%d SpawnAts allocated %d objects, want <= %d chunks + %d", n, objects, chunks, slack)
	}
	if bytes > chunkBytes+8<<10 {
		t.Errorf("%d SpawnAts allocated %d bytes, want <= %d in chunks + 8 KiB", n, bytes, chunkBytes)
	}
}
