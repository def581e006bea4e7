package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
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

// replayEventOrder drives a queue with the operations ops encodes and
// checks every pop against the specification: the first of a stable sort
// on (time, seq) of everything still pending, which ref keeps by sorted
// insertion (stamps are unique). Each op byte picks one step — a pop, a
// heap post, an arrival at a time drawn from the next byte, or an arrival
// at the time just popped (a mid-run SpawnAt(Clock(), …)) — and the
// queue is drained at the end. Times are drawn from a narrow range, so
// equal-time runs and out-of-order arrivals are the common case.
func replayEventOrder(tb testing.TB, ops []byte) {
	tb.Helper()
	var q eventQueue
	var ref []posted
	var seq uint64
	var now int64
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
	}
	pop := func() {
		want := ref[0]
		wantTime, _ := want.stamp()
		if got := q.peekTime(); got != wantTime {
			tb.Fatalf("peekTime = %d, want %d", got, wantTime)
		}
		e, a, isArrival := q.pop()
		switch {
		case isArrival != want.isArrival:
			tb.Fatalf("pop = (%+v, %+v, arrival %v), want %+v", e, a, isArrival, want)
		case isArrival && a != want.arr:
			tb.Fatalf("pop = arrival %+v, want %+v", a, want.arr)
		case !isArrival && e != want.ev:
			tb.Fatalf("pop = event %+v, want %+v", e, want.ev)
		}
		if isArrival && q.next > 0 && q.arrivals[q.next-1] != (arrival{}) {
			tb.Fatalf("the fired arrival still holds %+v", q.arrivals[q.next-1])
		}
		ref = ref[1:]
		now = wantTime
	}
	for len(ops) > 0 {
		op := next()
		if op%4 == 0 {
			if len(ref) > 0 {
				pop()
			}
			continue
		}
		seq++
		t := now + int64(next()%12)
		var p posted
		switch op % 4 {
		case 1:
			p.ev = event{time: t, seq: seq, task: int64(op), runSeq: seq * 7, core: int32(op % 8), kind: eventKind(op % 5)}
			q.push(p.ev)
		case 3:
			t = now
			fallthrough
		case 2:
			p.isArrival = true
			p.arr = arrival{time: t, seq: seq, weight: int64(op), behavior: tagBehavior(seq), core: int(op % 8)}
			q.pushArrival(p.arr)
		}
		post(p)
	}
	for len(ref) > 0 {
		pop()
	}
	if len(q.heap) != 0 || q.next != len(q.arrivals) || q.peekTime() != math.MaxInt64 {
		tb.Fatalf("drained queue holds %d events and %d arrivals, peekTime %d",
			len(q.heap), len(q.arrivals)-q.next, q.peekTime())
	}
}

// The queue against its specification: under any interleaving of heap
// posts, arrivals (in and out of time order, and at the time just
// popped) and pops, pop returns what a stable sort on (time, seq) of the
// pending items would put first — earliest time, and among equal times
// the one posted first.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		ops := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(ops)
		replayEventOrder(t, ops)
	}
}

func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{1, 3, 2, 5, 3, 0, 0, 1, 0, 2, 11, 0, 3, 0})
	f.Add([]byte{2, 9, 2, 1, 2, 5, 1, 1, 0, 3, 0, 0, 0})
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
	if s.q.next != 1 || s.q.arrivals[0].behavior != nil {
		t.Error("the fired arrival still holds its behavior after the spawn")
	}
	if s.q.arrivals[1].behavior == nil {
		t.Error("the pending arrival lost its behavior before the spawn")
	}
	if st := s.state(0); st.status != statusExited || st.behavior != nil || st.task != nil {
		t.Errorf("exited task still holds its behavior or model task: %+v", st)
	}
	if st := s.Run(10_000); st.Completed != 2 {
		t.Errorf("Completed = %d, want 2", st.Completed)
	}
}
