package sim

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/trace"
)

func newSim(cores int, opts ...func(*Config)) *Simulator {
	cfg := Config{Cores: cores, Policy: policy.NewDelta2(), Seed: 42}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

// RunBlockLoop returns a behavior alternating compute and blocking —
// a thread handling I/O-bound requests: run `serve`, block `wait`,
// repeat `iters` times (0 = forever), then exit.
func RunBlockLoop(serve, wait int64, iters int) Behavior {
	n := 0
	return BehaviorFunc(func(int64, *RNG) Action {
		n++
		if iters > 0 && n > iters {
			return Action{RunFor: 1, Then: ThenExit}
		}
		return Action{RunFor: serve, Then: ThenBlock, BlockFor: wait}
	})
}

// Int63n returns a pseudo-random int64 in [0, n). n must be positive.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	return int64(r.Uint64() % uint64(n))
}

// eventsOf returns the ring's retained events of one kind, oldest first.
func eventsOf(r *trace.Ring, kind trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range r.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	s := newSim(1)
	s.SpawnAt(0, 0, 1024, RunOnce(5000))
	st := s.Run(100_000)
	if st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", st.Completed)
	}
	// Latency should be the service time: arrived at 0, no contention.
	if got := st.Latency.Max(); got < 5000 || got > 5600 {
		t.Errorf("latency = %d, want ≈5000", got)
	}
	if !s.Machine().Core(0).Idle() {
		t.Error("core should be idle after completion")
	}
}

func TestTwoTasksShareOneCore(t *testing.T) {
	s := newSim(1)
	s.SpawnAt(0, 0, 1024, RunOnce(10_000))
	s.SpawnAt(0, 0, 1024, RunOnce(10_000))
	st := s.Run(50_000)
	if st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", st.Completed)
	}
	if st.Preemptions == 0 {
		t.Error("expected quantum preemptions between two tasks")
	}
	// Round-robin: both finish near 20k, not one at 10k/one at 20k only
	// if FIFO-without-preemption. The second to finish is at ≈20k.
	if max := st.Latency.Max(); max < 19_000 || max > 22_000 {
		t.Errorf("max latency = %d, want ≈20000", max)
	}
}

func TestBalancingRescuesIdleCore(t *testing.T) {
	s := newSim(2)
	// Two long tasks arrive on core 0; core 1 idle. The first balance
	// round (t=4000) must migrate one.
	s.SpawnAt(0, 0, 1024, RunOnce(50_000))
	s.SpawnAt(0, 0, 1024, RunOnce(50_000))
	st := s.Run(200_000)
	if st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", st.Completed)
	}
	if st.Steals == 0 {
		t.Error("no steal happened")
	}
	// With balancing, both tasks run in parallel after t=4000 and finish
	// around 54k; without, the last would finish at 100k.
	if max := st.Latency.Max(); max > 60_000 {
		t.Errorf("max latency = %d, want < 60000 (parallel execution)", max)
	}
	// Wasted time: core 1 idle while core 0 overloaded for the first
	// 4000 ticks only.
	if st.WastedCoreTicks < 3000 || st.WastedCoreTicks > 5000 {
		t.Errorf("WastedCoreTicks = %.0f, want ≈4000", st.WastedCoreTicks)
	}
}

func TestNullPolicyWastesCores(t *testing.T) {
	cfg := func(c *Config) { c.Policy = policy.NewNull() }
	s := newSim(2, cfg)
	s.SpawnAt(0, 0, 1024, RunOnce(40_000))
	s.SpawnAt(0, 0, 1024, RunOnce(40_000))
	st := s.Run(100_000)
	if st.Steals != 0 {
		t.Error("null policy stole")
	}
	// Core 1 idle while core 0 overloaded for the whole 80k execution.
	if st.WastedCoreTicks < 75_000 {
		t.Errorf("WastedCoreTicks = %.0f, want ≈80000", st.WastedCoreTicks)
	}
	if st.ViolationEpisodes == 0 {
		t.Error("no violation episodes recorded")
	}
}

func TestBlockAndWake(t *testing.T) {
	s := newSim(1)
	// Serve 1000, block 5000, serve 1000, ... 3 iterations then exit.
	s.SpawnAt(0, 0, 1024, RunBlockLoop(1000, 5000, 3))
	st := s.Run(100_000)
	if st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", st.Completed)
	}
	// Total: 3*(1000+5000) + 1 final tick ≈ 18001.
	if max := st.Latency.Max(); max < 17_000 || max > 20_000 {
		t.Errorf("latency = %d, want ≈18000", max)
	}
}

func TestWakeGoesToLastCore(t *testing.T) {
	s := newSim(2)
	s.SpawnAt(0, 1, 1024, RunBlockLoop(500, 2000, 2))
	s.Run(20_000)
	// The task ran on core 1, blocked, woke: it must have returned to
	// core 1 (no steals should have been needed).
	ring := trace.NewRing(64)
	s2 := New(Config{Cores: 2, Policy: policy.NewDelta2(), Ring: ring, Seed: 1})
	s2.SpawnAt(0, 1, 1024, RunBlockLoop(500, 2000, 2))
	s2.Run(20_000)
	for _, e := range eventsOf(ring, trace.KindWake) {
		if e.Core != 1 {
			t.Errorf("wake on core %d, want 1", e.Core)
		}
	}
}

func TestBarrierSynchronization(t *testing.T) {
	s := newSim(2)
	b := NewBarrier(2)
	// Two tasks on two cores, 5 generations of 1000-tick work.
	s.SpawnAt(0, 0, 1024, BarrierLoop(b, 1000, 5))
	s.SpawnAt(0, 1, 1024, BarrierLoop(b, 1000, 5))
	st := s.Run(50_000)
	if st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", st.Completed)
	}
	if b.Generation != 5 {
		t.Errorf("Generation = %d, want 5", b.Generation)
	}
	// Parallel: 5 iterations of ~1000 ticks each ≈ 5000+.
	if max := st.Latency.Max(); max > 8000 {
		t.Errorf("latency = %d, want ≈5000 (parallel barriers)", max)
	}
}

func TestBarrierStragglerSlowsEveryone(t *testing.T) {
	// 2 barrier tasks pinned by placement to ONE core (no balancing via
	// null policy): every generation costs 2x the work.
	cfg := func(c *Config) { c.Policy = policy.NewNull() }
	s := newSim(2, cfg)
	b := NewBarrier(2)
	s.SpawnAt(0, 0, 1024, BarrierLoop(b, 1000, 5))
	s.SpawnAt(0, 0, 1024, BarrierLoop(b, 1000, 5))
	st := s.Run(50_000)
	if st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", st.Completed)
	}
	if max := st.Latency.Max(); max < 9_000 {
		t.Errorf("latency = %d, want ≈10000 (serialized barriers)", max)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		s := newSim(4)
		for i := 0; i < 16; i++ {
			s.SpawnAt(int64(i*100), i%4, 1024, RunOnce(3000+int64(i)*113))
		}
		return s.Run(100_000)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Steals != b.Steals ||
		a.WastedCoreTicks != b.WastedCoreTicks ||
		a.Latency.Mean() != b.Latency.Mean() {
		t.Errorf("same seed, different results:\n%v\n%v", a, b)
	}
}

func TestSequentialVsConcurrentMode(t *testing.T) {
	for _, mode := range []RoundMode{RoundSequential, RoundConcurrent} {
		s := newSim(4, func(c *Config) { c.Mode = mode })
		for i := 0; i < 8; i++ {
			s.SpawnAt(0, 0, 1024, RunOnce(20_000))
		}
		st := s.Run(200_000)
		if st.Completed != 8 {
			t.Errorf("mode %d: Completed = %d, want 8", mode, st.Completed)
		}
		if st.Steals == 0 {
			t.Errorf("mode %d: no steals", mode)
		}
	}
}

func TestStealFailuresHappenUnderContention(t *testing.T) {
	// Many idle cores fighting over one overloaded core's few tasks in
	// concurrent mode must produce some failed optimistic attempts.
	s := newSim(8)
	for i := 0; i < 10; i++ {
		s.SpawnAt(0, 0, 1024, RunOnce(100_000))
	}
	st := s.Run(400_000)
	if st.StealFails == 0 {
		t.Error("expected failed optimistic steals under contention")
	}
	if st.Completed != 10 {
		t.Errorf("Completed = %d, want 10", st.Completed)
	}
}

func TestTraceEvents(t *testing.T) {
	ring := trace.NewRing(1024)
	s := New(Config{Cores: 2, Policy: policy.NewDelta2(), Ring: ring, Seed: 3})
	s.SpawnAt(0, 0, 1024, RunOnce(6000))
	s.SpawnAt(0, 0, 1024, RunOnce(6000))
	s.Run(50_000)
	if len(eventsOf(ring, trace.KindSpawn)) != 2 {
		t.Errorf("spawn events = %d", len(eventsOf(ring, trace.KindSpawn)))
	}
	if len(eventsOf(ring, trace.KindExit)) != 2 {
		t.Errorf("exit events = %d", len(eventsOf(ring, trace.KindExit)))
	}
	if len(eventsOf(ring, trace.KindSteal)) == 0 {
		t.Error("no steal events")
	}
	if len(eventsOf(ring, trace.KindRound)) == 0 {
		t.Error("no round events")
	}
}

func TestRunIsResumable(t *testing.T) {
	s := newSim(1)
	s.SpawnAt(0, 0, 1024, RunOnce(10_000))
	st1 := s.Run(5_000)
	if st1.Completed != 0 {
		t.Errorf("completed early: %d", st1.Completed)
	}
	st2 := s.Run(20_000)
	if st2.Completed != 1 {
		t.Errorf("Completed = %d, want 1", st2.Completed)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no cores", Config{Policy: policy.NewDelta2()}},
		{"no policy", Config{Cores: 2}},
		{"bad groups", Config{Cores: 2, Policy: policy.NewDelta2(), Groups: []int{0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			New(tc.cfg)
		})
	}
}

func TestSpawnValidation(t *testing.T) {
	s := newSim(1)
	for _, f := range []func(){
		func() { s.SpawnAt(0, 5, 1024, RunOnce(1)) }, // bad core
		func() { s.SpawnAt(0, 0, 1024, nil) },        // nil behavior
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestSpawnInThePastPanics(t *testing.T) {
	s := newSim(1)
	s.SpawnAt(0, 0, 1024, RunOnce(100))
	s.Run(10_000)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	s.SpawnAt(5, 0, 1024, RunOnce(1))
}

func TestMachineStaysValid(t *testing.T) {
	s := newSim(4)
	b := NewBarrier(3)
	for i := 0; i < 3; i++ {
		s.SpawnAt(int64(i*500), 0, 1024, BarrierLoop(b, 2000, 10))
	}
	for i := 0; i < 6; i++ {
		s.SpawnAt(int64(i*1000), i%4, 1024, RunBlockLoop(800, 1500, 8))
	}
	for step := int64(10_000); step <= 100_000; step += 10_000 {
		s.Run(step)
		if err := s.Machine().Validate(); err != nil {
			t.Fatalf("at t=%d: %v", step, err)
		}
	}
}

func TestRNG(t *testing.T) {
	r := NewRNG(0) // remapped seed
	if r.Uint64() == 0 {
		t.Error("zero state not remapped")
	}
	r2 := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r2.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn coverage = %d/10", len(seen))
	}
	p := r2.Perm(6)
	mask := 0
	for _, v := range p {
		mask |= 1 << v
	}
	if mask != 63 {
		t.Errorf("Perm not a permutation: %v", p)
	}
	mean := 0.0
	for i := 0; i < 10_000; i++ {
		mean += float64(r2.ExpTicks(100))
	}
	mean /= 10_000
	if mean < 80 || mean > 120 {
		t.Errorf("ExpTicks mean = %.1f, want ≈100", mean)
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	for _, f := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestFailCoreRescuesQueuedTasks(t *testing.T) {
	rescue, err := policy.New("delta2-rescue")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cores: 3, Policy: rescue, Seed: 42})
	// Nine tasks land on core 0; it fail-stops before the first balance
	// round (t=4000), so the rescue rule — not stealing — must re-home
	// the whole queue onto cores 1 and 2.
	for i := 0; i < 9; i++ {
		s.SpawnAt(0, 0, 1024, RunOnce(5000))
	}
	s.FailAt(2000, 0)
	st := s.Run(200_000)
	if st.Completed != 9 {
		t.Fatalf("Completed = %d, want 9 (orphans lost to the failure)", st.Completed)
	}
	if st.Faults != 1 {
		t.Errorf("Faults = %d, want 1", st.Faults)
	}
	if st.Rescued == 0 {
		t.Error("no tasks counted as rescued despite the loaded core failing")
	}
	if st.Orphaned != 0 {
		t.Errorf("Orphaned = %d after the run, want 0", st.Orphaned)
	}
}

func TestFailCoreWithoutRescueStrandsUntilRevive(t *testing.T) {
	// Null policy: no stealing, no rescue rule. The failed core's tasks
	// are stranded — visible as Orphaned mid-run — until the scripted
	// revival brings the core and its queue back.
	s := New(Config{Cores: 2, Policy: policy.NewNull(), Seed: 1})
	for i := 0; i < 4; i++ {
		s.SpawnAt(0, 0, 1024, RunOnce(1000))
	}
	s.FailAt(500, 0)
	s.ReviveAt(10_000, 0)

	st := s.Run(5000) // past the failure, before the revival
	if st.Completed != 0 {
		t.Fatalf("Completed = %d before revival under a no-steal policy, want 0", st.Completed)
	}
	if st.Orphaned != 4 {
		t.Errorf("Orphaned = %d while core 0 is down, want 4", st.Orphaned)
	}

	st = s.Run(100_000)
	if st.Completed != 4 {
		t.Fatalf("Completed = %d after revival, want 4", st.Completed)
	}
	if st.Orphaned != 0 {
		t.Errorf("Orphaned = %d after revival, want 0", st.Orphaned)
	}
	if st.Faults != 2 {
		t.Errorf("Faults = %d, want 2 (one fail + one revive)", st.Faults)
	}
	if st.Rescued != 0 {
		t.Errorf("Rescued = %d under a rescue-less policy, want 0", st.Rescued)
	}
}

func TestFailAndReviveEmitTraceEvents(t *testing.T) {
	ring := trace.NewRing(64)
	s := New(Config{Cores: 2, Policy: policy.NewDelta2(), Ring: ring, Seed: 1})
	s.SpawnAt(0, 0, 1024, RunOnce(2000))
	s.FailAt(500, 1)
	s.ReviveAt(1500, 1)
	s.Run(10_000)
	fails, revives := eventsOf(ring, trace.KindFail), eventsOf(ring, trace.KindRevive)
	if len(fails) != 1 || fails[0].Core != 1 || fails[0].Time != 500 {
		t.Errorf("fail events = %+v, want one on core 1 at t=500", fails)
	}
	if len(revives) != 1 || revives[0].Core != 1 || revives[0].Time != 1500 {
		t.Errorf("revive events = %+v, want one on core 1 at t=1500", revives)
	}
}

func TestFailReviveValidation(t *testing.T) {
	s := newSim(2)
	s.Run(1000)
	for name, f := range map[string]func(){
		"fail core out of range":   func() { s.FailAt(2000, 2) },
		"revive core out of range": func() { s.ReviveAt(2000, -1) },
		"fail in the past":         func() { s.FailAt(500, 0) },
		"revive in the past":       func() { s.ReviveAt(500, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}

	// Events the model's validity rule refuses when they fire — reviving
	// an online core, failing an offline one, failing the last online
	// core — are no-ops and are not counted as faults.
	s = New(Config{Cores: 2, Policy: policy.NewNull(), Seed: 1})
	for i := 0; i < 3; i++ {
		s.SpawnAt(0, 1, 1024, RunOnce(1000))
	}
	s.ReviveAt(50, 1) // online: refused
	s.FailAt(100, 0)
	s.FailAt(150, 0) // already offline: refused
	s.FailAt(200, 1) // the last online core: refused
	st := s.Run(100_000)
	if got := s.Machine().OnlineCores(); got != 1 {
		t.Fatalf("OnlineCores = %d, want 1 (the last online core must not fail)", got)
	}
	if st.Faults != 1 {
		t.Errorf("Faults = %d, want 1 (refused events are not counted)", st.Faults)
	}
	if st.Completed != 3 || st.Orphaned != 0 {
		t.Errorf("Completed/Orphaned = %d/%d, want 3/0", st.Completed, st.Orphaned)
	}
}
