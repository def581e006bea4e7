package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The paper's proofs assume no thread enters or leaves the runqueues
// ("changes in the runqueues could perpetually prevent the load
// balancing rounds from stealing threads", §4). These tests probe that
// excluded dynamic case empirically: under continuous churn — arrivals,
// exits, blocking, waking — a sound policy keeps every violation
// transient (bounded episodes, bounded wasted fraction), while the
// machine invariants hold at every checkpoint.

// churnWorkload drives sustained arrival/exit churn onto one core.
func churnWorkload(s *Simulator, tasks int, horizon int64) {
	rng := NewRNG(99)
	for i := 0; i < tasks; i++ {
		at := rng.Int63n(horizon / 2)
		service := 500 + rng.Int63n(4000)
		if rng.Float64() < 0.3 {
			s.SpawnAt(at, 0, 1024, RunBlockLoop(service, 1000+rng.Int63n(2000), 2+rng.Intn(3)))
		} else {
			s.SpawnAt(at, 0, 1024, RunOnce(service))
		}
	}
}

func TestChurnViolationsAreTransient(t *testing.T) {
	const horizon = 600_000
	s := newSim(4)
	churnWorkload(s, 150, horizon)
	st := s.Run(horizon)
	if st.Completed != 150 {
		t.Fatalf("Completed = %d, want 150", st.Completed)
	}
	// Violations happen (arrivals land on busy cores between rounds)
	// and their cost is structural to *periodic* balancing: each episode
	// lasts at most one 4000-tick period before a round clears it. The
	// wasted fraction therefore stays bounded — ~15% here, all of it
	// inter-round latency, against >25% for no balancing at all (next
	// test). Tightening this is the "reactivity" property the paper
	// lists as future work.
	if st.ViolationEpisodes == 0 {
		t.Error("churn produced no violation episodes — workload too tame to test anything")
	}
	if st.WastedPct > 20 {
		t.Errorf("wasted %.1f%% of capacity under churn; delta2 should keep violations transient", st.WastedPct)
	}
	if err := s.Machine().Validate(); err != nil {
		t.Error(err)
	}
}

func TestChurnNullPolicyAccumulatesWaste(t *testing.T) {
	const horizon = 600_000
	cfg := func(c *Config) { c.Policy = policy.NewNull() }
	s := newSim(4, cfg)
	churnWorkload(s, 150, horizon)
	st := s.Run(horizon)
	// Everything runs on core 0: three cores idle while it is
	// overloaded for most of the busy period.
	if st.WastedPct < 15 {
		t.Errorf("null policy wasted only %.1f%% under churn; expected heavy waste", st.WastedPct)
	}
}

func TestChurnEpisodesBoundedByRounds(t *testing.T) {
	// Every violation episode under delta2 must be cleared by a
	// balancing round: no episode survives longer than ~one period plus
	// the round's own effect. We verify indirectly: with the balance
	// period doubled, waste roughly scales up too.
	run := func(period int64) float64 {
		s := newSim(4, func(c *Config) { c.BalancePeriod = period })
		churnWorkload(s, 150, 600_000)
		st := s.Run(600_000)
		return st.WastedCoreTicks
	}
	fast, slow := run(2000), run(16_000)
	if slow <= fast {
		t.Errorf("wasted ticks: period=2000 -> %.0f, period=16000 -> %.0f; slower rounds should waste more",
			fast, slow)
	}
}

func TestIdleBalanceCutsWaste(t *testing.T) {
	// The reactivity ablation: idle balancing removes most inter-round
	// waste under churn without touching the policy or its proofs.
	run := func(idle bool) Stats {
		s := newSim(4, func(c *Config) { c.IdleBalance = idle })
		churnWorkload(s, 150, 600_000)
		return s.Run(600_000)
	}
	periodic, reactive := run(false), run(true)
	t.Logf("wasted%%: periodic-only=%.1f with-idle-balance=%.1f",
		periodic.WastedPct, reactive.WastedPct)
	// Idle balancing fires on the busy->idle transition; waste from work
	// arriving while a core was *already* idle remains until the next
	// periodic round (fixing that needs wakeup placement, a different
	// mechanism). Expect a substantial but not total cut: ≥25%.
	if reactive.WastedPct >= 0.75*periodic.WastedPct {
		t.Errorf("idle balance should cut waste by ≥25%%: %.1f%% -> %.1f%%",
			periodic.WastedPct, reactive.WastedPct)
	}
	if reactive.Completed != periodic.Completed {
		t.Errorf("completions differ: %d vs %d", periodic.Completed, reactive.Completed)
	}
}

func TestIdleBalanceStealsImmediately(t *testing.T) {
	// Idle balance triggers on the busy->idle transition: core 1
	// finishes a short task at t≈100 and must immediately steal from
	// core 0 instead of waiting for the periodic round at t=4000.
	s := newSim(2, func(c *Config) { c.IdleBalance = true })
	s.SpawnAt(0, 0, 1024, RunOnce(50_000))
	s.SpawnAt(0, 0, 1024, RunOnce(50_000))
	s.SpawnAt(0, 1, 1024, RunOnce(100))
	st := s.Run(1_000) // well before the first periodic round
	if st.Steals == 0 {
		t.Error("idle balance did not steal before the first periodic round")
	}
	if s.Machine().Core(1).Idle() {
		t.Error("core 1 still idle despite idle balancing")
	}
}

// TestIdleBalanceTracesEveryFailedSteal pins the trace to the counter:
// an idle steal that fails is one KindStealFail event, exactly as a
// failed attempt of a periodic round is. The policy's filter passes an
// overloaded victim but it sizes every steal at zero, so every attempt
// — idle or periodic — fails.
func TestIdleBalanceTracesEveryFailedSteal(t *testing.T) {
	never := &sched.FuncPolicy{
		PolicyName: "never",
		LoadFn:     func(c *sched.Core) int64 { return int64(c.NThreads()) },
		FilterFn:   func(_, stealee *sched.Core) bool { return stealee.NThreads() >= 2 },
		CountFn:    func(_, _ *sched.Core) int { return 0 },
	}
	ring := trace.NewRing(1 << 12)
	s := New(Config{Cores: 2, Policy: never, Ring: ring, Seed: 1, IdleBalance: true})
	s.SpawnAt(0, 0, 1024, RunOnce(50_000))
	s.SpawnAt(0, 0, 1024, RunOnce(50_000))
	s.SpawnAt(0, 1, 1024, RunOnce(100))
	st := s.Run(20_000)
	if ring.Len() == 1<<12 {
		t.Fatal("ring full: events may have been dropped")
	}
	fails := eventsOf(ring, trace.KindStealFail)
	if len(fails) == 0 || fails[0].Time >= 4000 {
		t.Fatalf("fail events = %+v, want the idle steal's before the first periodic round", fails)
	}
	if int64(len(fails)) != st.StealFails {
		t.Errorf("%d KindStealFail events, Stats.StealFails = %d", len(fails), st.StealFails)
	}
}

func TestChurnDeterministicUnderSeed(t *testing.T) {
	run := func() Stats {
		s := newSim(4)
		churnWorkload(s, 80, 300_000)
		return s.Run(300_000)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Steals != b.Steals || a.WastedCoreTicks != b.WastedCoreTicks {
		t.Errorf("churn run not deterministic:\n%v\n%v", a, b)
	}
}

func TestMidRunSpawnsIntegrate(t *testing.T) {
	// Run, then inject more load mid-flight, then run again: resumable
	// simulation with late arrivals.
	s := newSim(2)
	s.SpawnAt(0, 0, 1024, RunOnce(20_000))
	s.Run(10_000)
	s.SpawnAt(s.Clock()+100, 0, 1024, RunOnce(20_000))
	s.SpawnAt(s.Clock()+200, 1, 1024, RunOnce(5_000))
	st := s.Run(200_000)
	if st.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", st.Completed)
	}
	if err := s.Machine().Validate(); err != nil {
		t.Error(err)
	}
}

// A spawn posted mid-run for the current instant joins the back of that
// instant: it fires after every event and arrival already posted for the
// same time, as if it had been posted to one queue with everything else.
func TestMidRunSpawnAtClockFiresLast(t *testing.T) {
	ring := trace.NewRing(1024)
	s := newSim(4, func(c *Config) { c.Ring = ring })
	// Task 0 (core 0) ends its action at 2000 in a slice posted at 1000
	// and, from that slice end, spawns task 3 at the current instant.
	phase := 0
	s.SpawnAt(0, 0, 1024, BehaviorFunc(func(now int64, _ *RNG) Action {
		phase++
		if phase == 2 {
			s.SpawnAt(s.Clock(), 2, 1024, RunOnce(100))
		}
		return Action{RunFor: 2000, Then: ThenYield}
	}))
	// Task 1 (core 1) blocks at 1500 until 2000: a wake posted after
	// task 0's slice end, for the same instant.
	s.SpawnAt(0, 1, 1024, RunBlockLoop(1500, 500, 1))
	// Task 2 arrives at 2000, posted before the run.
	s.SpawnAt(2000, 3, 1024, RunOnce(100))
	s.Run(3000)

	var got []string
	for _, e := range ring.Events() {
		if e.Time == 2000 && (e.Kind == trace.KindSpawn || e.Kind == trace.KindWake) {
			got = append(got, fmt.Sprintf("%s %d", e.Kind, e.Task))
		}
	}
	want := []string{"spawn 2", "wake 1", "spawn 3"}
	if !slices.Equal(got, want) {
		t.Errorf("order at t=2000 = %v, want %v", got, want)
	}
}
