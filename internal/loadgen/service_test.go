package loadgen

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

func testService(horizon int64) *Service {
	return &Service{
		Arrivals:     NewPoisson(2_000),
		Work:         NewBoundedPareto(1.5, 1_000, 100_000),
		Malleable:    MalleableSpec{ParallelFraction: 0.5, MaxWidth: 3, SpeedupExponent: 0.9},
		Horizon:      horizon,
		ArrivalCores: []int{0, 1},
	}
}

// One seed fixes the whole run: arrivals, work, widths, completions.
func TestServiceDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		svc := testService(300_000)
		s := sim.New(sim.Config{Cores: 4, Policy: policy.NewDelta2(), Seed: 7})
		svc.Setup(s)
		st := s.Run(450_000)
		return fmt.Sprintf("arrived=%d done=%d offered=%d lat=%s steals=%d",
			svc.Arrived(), svc.Completed(), svc.offered, svc.Latency(), st.Steals)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different runs:\n%s\n%s", a, b)
	}
}

// With a post-horizon drain and moderate load, every job finishes and
// every completion is one latency sample.
func TestServiceJobsDrainAndLatencyCounts(t *testing.T) {
	svc := testService(200_000)
	s := sim.New(sim.Config{Cores: 4, Policy: policy.NewDelta2(), Seed: 3})
	svc.Setup(s)
	s.Run(2_000_000) // generous drain
	if svc.Arrived() == 0 {
		t.Fatal("no jobs arrived")
	}
	if svc.Completed() != svc.Arrived() {
		t.Errorf("completed %d of %d after full drain", svc.Completed(), svc.Arrived())
	}
	if svc.Latency().Count() != svc.Completed() {
		t.Errorf("latency samples %d, completions %d", svc.Latency().Count(), svc.Completed())
	}
	if svc.Latency().Min() < 1_000/3 {
		t.Errorf("min job latency %d below any possible task share", svc.Latency().Min())
	}
}

// constDist is a fixed-work distribution for exact-accounting tests.
type constDist struct{ v int64 }

func (c constDist) Name() string          { return "const" }
func (c constDist) Sample(*sim.RNG) int64 { return c.v }
func (c constDist) Mean() float64         { return float64(c.v) }

// A parallel job must not complete before its slowest sibling: with one
// core, every width-2 job's two 5000-tick halves serialize, so no
// sojourn can be below the job's total work of 10,000 ticks.
func TestServiceParallelJobCompletesAtLastTask(t *testing.T) {
	svc := &Service{
		Arrivals:  NewPoisson(100_000),
		Work:      constDist{10_000},
		Malleable: MalleableSpec{ParallelFraction: 1, MaxWidth: 2, SpeedupExponent: 1},
		Horizon:   2_000_000,
	}
	s := sim.New(sim.Config{Cores: 1, Policy: policy.NewNull(), Seed: 5})
	svc.Setup(s)
	s.Run(40_000_000)
	if svc.Completed() == 0 {
		t.Fatal("no jobs completed")
	}
	if svc.Completed() != svc.Arrived() {
		t.Fatalf("only %d of %d jobs drained", svc.Completed(), svc.Arrived())
	}
	if got := svc.Latency().Min(); got < 10_000 {
		t.Errorf("min sojourn %d below the job's serialized work of 10000", got)
	}
}

// The analytic CPU-inflation model used for rate targeting matches what
// Setup actually offers: at a given target load the empirically offered
// utilization lands within a few percent.
func TestServiceOfferedUtilizationMatchesTarget(t *testing.T) {
	for _, load := range []float64{0.6, 0.9} {
		const cores = 8
		m := MalleableSpec{ParallelFraction: 0.25, MaxWidth: 4, SpeedupExponent: 0.85}
		dist := NewBoundedPareto(1.5, 1_000, 200_000)
		meanGap := m.ExpectedCPU(dist.Mean()) / (load * cores)
		svc := &Service{
			Arrivals:     NewPoisson(meanGap),
			Work:         dist,
			Malleable:    m,
			Horizon:      20_000_000,
			ArrivalCores: []int{0, 1},
		}
		s := sim.New(sim.Config{Cores: cores, Policy: policy.NewDelta2(), Seed: 17})
		svc.Setup(s)
		got := svc.OfferedUtilization(cores)
		if rel := (got - load) / load; rel < -0.06 || rel > 0.06 {
			t.Errorf("load %.2f: offered utilization %.4f (rel %.3f)", load, got, rel)
		}
	}
}

func TestServiceSetupPanicsOnBadConfig(t *testing.T) {
	for name, svc := range map[string]*Service{
		"nil-arrivals": {Work: NewExponential(10), Horizon: 100},
		"nil-work":     {Arrivals: NewPoisson(10), Horizon: 100},
		"no-horizon":   {Arrivals: NewPoisson(10), Work: NewExponential(10)},
		"bad-malleable": {Arrivals: NewPoisson(10), Work: NewExponential(10), Horizon: 100,
			Malleable: MalleableSpec{ParallelFraction: 0.5}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			svc.Setup(sim.New(sim.Config{Cores: 2, Policy: policy.NewNull()}))
		}()
	}
}

// Setup takes jobs and their tasks from sched.Slabs, whose chunks hold
// 64 values each: on a fixed seed
// a new Service allocates one chunk per 64 jobs and per 64 tasks, plus a
// constant for the speedup table, the latency histogram, the two slabs'
// chunk lists and the simulator's arrival chunks growing to hold every
// arrival.
func TestServiceSetupAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes what escapes to the heap")
	}
	const slack = 64
	svc := testService(2_000_000)
	s := sim.New(sim.Config{Cores: 4, Policy: policy.NewDelta2(), Seed: 11})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc.Setup(s)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	st := s.Run(40_000_000) // drain: every spawned task completes once
	jobs, tasks := svc.Arrived(), st.Completed
	if svc.Completed() != jobs || jobs < 500 || tasks <= jobs {
		t.Fatalf("fixture broken: %d of %d jobs completed, %d tasks", svc.Completed(), jobs, tasks)
	}
	chunks := func(n int64) uint64 { return uint64((n + 63) / 64) }
	if limit := chunks(jobs) + chunks(tasks) + slack; allocs > limit {
		t.Errorf("Setup of %d jobs / %d tasks allocated %d objects, want <= %d", jobs, tasks, allocs, limit)
	}
	t.Logf("%d jobs, %d tasks: Setup allocated %d objects", jobs, tasks, allocs)
}
