package workload

import (
	"strings"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The open-loop service workload lives in internal/loadgen and satisfies
// Workload structurally (loadgen must not import this package, or the
// sweep runner would cycle), so it composes with Combined beside a
// Pinned hog — the paper's "service traffic vs. rogue thread" mix.
var _ Workload = (*loadgen.Service)(nil)

func newSim(cores int, p string, groups []int) *sim.Simulator {
	pol, err := policy.New(p)
	if err != nil {
		panic(err)
	}
	return sim.New(sim.Config{Cores: cores, Policy: pol, Groups: groups, Seed: 7})
}

func TestBarrierWorkloadCompletes(t *testing.T) {
	s := newSim(4, "delta2", nil)
	w := &Barrier{Threads: 4, Work: 1000, Iterations: 10}
	w.Setup(s)
	st := s.Run(500_000)
	if st.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", st.Completed)
	}
	if w.Generations() != 10 {
		t.Errorf("Generations = %d, want 10", w.Generations())
	}
}

func TestBarrierSpreadBeatsPiledUp(t *testing.T) {
	// With Delta2 the threads spread over 4 cores; with Null they stay
	// on core 0. Iterations in a fixed horizon must differ ~4x. The work
	// size is chosen coprime to the 4000-tick balance period: a multiple
	// would phase-lock the barrier so every round observes an empty
	// runqueue and nothing is ever stealable.
	run := func(pname string) int64 {
		s := newSim(4, pname, nil)
		w := &Barrier{Threads: 4, Work: 1700} // unbounded iterations
		w.Setup(s)
		s.Run(200_000)
		return w.Generations()
	}
	spread, piled := run("delta2"), run("null")
	if spread < 3*piled {
		t.Errorf("spread=%d piled=%d, want ≥3x speedup from balancing", spread, piled)
	}
}

func TestPinnedNeverMigrates(t *testing.T) {
	s := newSim(2, "delta2", nil)
	(&Pinned{Core: 1, Weight: 8192}).Setup(s)
	s.Run(100_000)
	c1 := s.Machine().Core(1)
	if c1.Current == nil || c1.Current.Weight != 8192 {
		t.Error("pinned thread not running on its core")
	}
	if s.Machine().Core(0).NThreads() != 0 {
		t.Error("pinned thread leaked to core 0")
	}
}

func TestCombinedAndNames(t *testing.T) {
	c := &Combined{Parts: []Workload{
		&Pinned{Core: 0},
		&Barrier{Threads: 1, Work: 1},
	}}
	if !strings.Contains(c.Name(), "pinned") || !strings.Contains(c.Name(), "barrier") {
		t.Errorf("Name = %q", c.Name())
	}
	c.Label = "custom"
	if c.Name() != "custom" {
		t.Errorf("Name = %q", c.Name())
	}
	for _, w := range []Workload{
		&Barrier{Threads: 1, Work: 1},
		&Server{Workers: 1, Service: 1},
		NewDBTrap(),
	} {
		if w.Name() == "" {
			t.Error("empty workload name")
		}
	}
}

func TestGroupTrapGroups(t *testing.T) {
	g := GroupTrapGroups(4)
	want := []int{0, 0, 1, 1}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("GroupTrapGroups(4) = %v", g)
		}
	}
	a := AsymmetricGroups(10, 8)
	if a[7] != 0 || a[8] != 1 || a[9] != 1 {
		t.Fatalf("AsymmetricGroups(10, 8) = %v", a)
	}
}

func TestAsymmetricGroupsPanics(t *testing.T) {
	for _, g0 := range []int{0, 4, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AsymmetricGroups(4, %d) did not panic", g0)
				}
			}()
			AsymmetricGroups(4, g0)
		}()
	}
}

func TestServerCountsRequests(t *testing.T) {
	s := newSim(2, "delta2", nil)
	srv := &Server{Workers: 2, Service: 1000, Think: 500}
	srv.Setup(s)
	s.Run(50_000)
	// Each worker cycles in ≈1500 ticks on its own core: ≈33 each.
	if got := srv.Requests(); got < 40 || got > 80 {
		t.Errorf("Requests = %d, want ≈66", got)
	}
}

func TestDatabaseTrapShape(t *testing.T) {
	// The headline E6 comparison: buggy group-average balancing loses
	// ≈25% request throughput vs a weighted work-conserving policy.
	run := func(pname string) (int64, sim.Stats) {
		trap := NewDBTrap()
		s := newSim(trap.Cores(), pname, trap.Groups())
		trap.Setup(s)
		st := s.Run(1_500_000)
		if st.Rounds == 0 {
			t.Errorf("%s ran no balancing rounds", pname)
		}
		return trap.Server.Requests(), st
	}
	good, goodStats := run("weighted")
	bad, badStats := run("cfs-group-buggy")
	run("null") // balancing rounds run whether or not the policy ever steals
	loss := 100 * float64(good-bad) / float64(good)
	t.Logf("db-trap: good=%d bad=%d loss=%.1f%% (paper: up to 25%%)", good, bad, loss)
	if loss < 15 || loss > 45 {
		t.Errorf("throughput loss = %.1f%%, want ≈25%%", loss)
	}
	// The buggy policy leaves core 0 idle-while-overloaded permanently:
	// essentially the whole horizon. The good policy still shows
	// *transient* idleness (its core-0 worker blocks for think time and
	// re-balancing waits for the next round) — that is the legal
	// temporary idleness of §3.2, so the gap is ~2x, not 100x.
	if badStats.WastedCoreTicks < 0.95*1_500_000 {
		t.Errorf("buggy wasted %.0f core-ticks, want ≈ the whole horizon", badStats.WastedCoreTicks)
	}
	if badStats.WastedCoreTicks < 1.8*goodStats.WastedCoreTicks {
		t.Errorf("wasted: buggy=%.0f good=%.0f, want buggy ≥ 1.8x good",
			badStats.WastedCoreTicks, goodStats.WastedCoreTicks)
	}
}

func TestBarrierTrapShape(t *testing.T) {
	// Scientific-app slowdown: buggy balancing confines the 8 barrier
	// threads to group 1's 2 cores (4 per core), slowing iterations
	// many-fold vs the spread placement.
	run := func(pname string) int64 {
		trap := NewBarrierTrap(1700)
		s := newSim(trap.Cores(), pname, trap.Groups())
		trap.Setup(s)
		s.Run(400_000)
		return trap.Barrier.Generations()
	}
	good := run("weighted")
	bad := run("cfs-group-buggy")
	t.Logf("barrier-trap: good=%d bad=%d ratio=%.1fx (paper: many-fold)",
		good, bad, float64(good)/float64(bad))
	if float64(good) < 2.5*float64(bad) {
		t.Errorf("generations: good=%d bad=%d, want ≥2.5x from work conservation", good, bad)
	}
}

func TestWorkloadValidation(t *testing.T) {
	s := newSim(1, "delta2", nil)
	for _, w := range []Workload{
		&Barrier{Threads: 0, Work: 1},
		&Server{Workers: 0, Service: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T with zero size did not panic", w)
				}
			}()
			w.Setup(s)
		}()
	}
}
