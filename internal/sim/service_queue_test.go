package sim_test

import (
	"testing"

	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/sim"
)

// A sweep point's arrivals never enter the heap. After Service.Setup of
// a 0.9-load point (the sweep's default machine and job mix) the heap
// holds only the first balance tick, however many arrivals are pending;
// while the point runs it holds at most one slice end per core plus the
// next balance tick, checked after every instant.
func TestServiceArrivalsStayOffTheHeap(t *testing.T) {
	const cores, horizon, load = 8, 480_000, 0.9
	dist := loadgen.NewBoundedPareto(1.5, 1_000, 1_000_000)
	malleable := loadgen.MalleableSpec{ParallelFraction: 0.25, MaxWidth: 4, SpeedupExponent: 0.85}
	svc := &loadgen.Service{
		Arrivals:     loadgen.NewPoisson(malleable.ExpectedCPU(dist.Mean()) / (load * cores)),
		Work:         dist,
		Malleable:    malleable,
		Horizon:      horizon,
		ArrivalCores: []int{0, 1},
	}
	p, err := policy.New("delta2")
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sim.Config{Cores: cores, Policy: p, Groups: []int{0, 0, 0, 0, 1, 1, 1, 1}, Seed: 1})
	svc.Setup(s)

	if n := sim.PendingArrivals(s); n < 1_000 {
		t.Fatalf("Setup posted %d arrivals; the fixture needs a loaded point", n)
	}
	if n := sim.LiveEvents(s); n != 1 {
		t.Fatalf("after Setup the heap holds %d events, want only the first balance tick", n)
	}
	if at, balance := sim.HeapTop(s); !balance || at != 4_000 {
		t.Fatalf("after Setup the heap top is (t=%d, balance %v), want the balance tick at 4000", at, balance)
	}

	most := 0
	for at := sim.NextTime(s); at <= horizon+horizon/2; at = sim.NextTime(s) {
		s.Run(at)
		most = max(most, sim.LiveEvents(s))
	}
	t.Logf("%d jobs arrived, %d completed, at most %d live events", svc.Arrived(), svc.Completed(), most)
	if most > cores+1 {
		t.Errorf("the heap held %d live events, want at most %d (a slice end per core and a balance tick)", most, cores+1)
	}
	if svc.Completed() < svc.Arrived()/2 {
		t.Fatalf("%d of %d jobs completed; the fixture did not run", svc.Completed(), svc.Arrived())
	}
}
