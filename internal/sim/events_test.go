package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// The queue against its specification: under any interleaving of pushes
// and pops, pop returns what a stable sort on time of the pending events
// would put first — earliest time, and among equal times the one posted
// first (lowest seq).
func TestEventQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []event
		var seq uint64
		check := func() {
			sort.Slice(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
			if got, want := q.peekTime(), ref[0].time; got != want {
				t.Fatalf("seed %d: peekTime = %d, want %d", seed, got, want)
			}
			got := q.pop()
			if got != ref[0] {
				t.Fatalf("seed %d: pop = %+v, want %+v", seed, got, ref[0])
			}
			ref = ref[1:]
		}
		for step := 0; step < 400; step++ {
			if len(ref) > 0 && r.Intn(5) < 2 {
				check()
				continue
			}
			seq++
			// A narrow time range makes equal-time runs the common case.
			e := event{time: r.Int63n(12), seq: seq, task: r.Int63(), runSeq: r.Uint64(), core: int32(r.Intn(8)), kind: eventKind(r.Intn(6))}
			q.push(e)
			ref = append(ref, e)
		}
		for len(ref) > 0 {
			check()
		}
		if len(q) != 0 || q.peekTime() <= 1<<62 {
			t.Fatalf("seed %d: drained queue has %d events, peekTime %d", seed, len(q), q.peekTime())
		}
	}
}

func TestEventQueueEqualTimesAreFIFO(t *testing.T) {
	var q eventQueue
	for i := 1; i <= 100; i++ {
		q.push(event{time: 7, seq: uint64(i), task: int64(i)})
	}
	for i := 1; i <= 100; i++ {
		if e := q.pop(); e.task != int64(i) {
			t.Fatalf("pop %d returned the event posted %d-th", i, e.task)
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

// A spawn descriptor's behavior is the task's from the moment it spawns:
// the descriptor must not pin it for the simulator's lifetime.
func TestSpawnedDescriptorReleasesBehavior(t *testing.T) {
	s := newSim(2)
	s.SpawnAt(0, 0, 1024, RunOnce(100))
	s.SpawnAt(5000, 1, 1024, RunOnce(100))
	s.Run(1000)
	if s.spawn[0].behavior != nil {
		t.Error("descriptor 0 still holds its behavior after the spawn")
	}
	if s.spawn[1].behavior == nil {
		t.Error("descriptor 1 lost its behavior before the spawn")
	}
	if st := s.state(0); st.status != statusExited || st.behavior != nil || st.task != nil {
		t.Errorf("exited task still holds its behavior or model task: %+v", st)
	}
	if st := s.Run(10_000); st.Completed != 2 {
		t.Errorf("Completed = %d, want 2", st.Completed)
	}
}
