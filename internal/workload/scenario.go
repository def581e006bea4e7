package workload

import (
	"fmt"

	"repro/internal/sim"
)

// This file defines the canonical §1-motivation scenarios of experiment
// E6, reproducing Lozi et al.'s wasted-cores measurements in simulation.
// Both scenarios place a heavy pinned thread in group 0 so that
// group-average-based balancing (policy.CFSGroupBuggy) starves group 0's
// idle cores while group 1 is overloaded. The hog's large weight models
// the autogroup/cgroup load inflation that made a single R process
// dominate a node's load average in Lozi et al.'s measurements.

// Server is a closed-loop transactional server: Workers threads each loop
// {run Service ticks, block Think ticks}, counting completed requests.
// Closed-loop operation keeps the offered load stable (no unbounded
// backlog), which is what makes throughput loss from wasted cores cleanly
// measurable — the paper's "realistic database workload".
type Server struct {
	// Workers is the number of server threads.
	Workers int
	// Service is the CPU time per request.
	Service int64
	// Think is the blocking time between requests (lock/disk wait).
	Think int64
	// SpawnCores lists where workers are born, round-robin.
	SpawnCores []int

	requests int64
}

// Name implements Workload.
func (w *Server) Name() string {
	return fmt.Sprintf("server(workers=%d,svc=%d,think=%d)", w.Workers, w.Service, w.Think)
}

// Setup implements Workload.
func (w *Server) Setup(s *sim.Simulator) {
	if w.Workers <= 0 || w.Service <= 0 || w.Think < 0 {
		panic("workload: Server needs positive Workers, Service and non-negative Think")
	}
	cores := w.SpawnCores
	if len(cores) == 0 {
		cores = []int{0}
	}
	for i := 0; i < w.Workers; i++ {
		core := cores[i%len(cores)]
		s.SpawnAt(0, core, 1024, w.workerBehavior())
	}
}

func (w *Server) workerBehavior() sim.Behavior {
	return sim.BehaviorFunc(func(int64, *sim.RNG) sim.Action {
		w.requests++
		return sim.Action{RunFor: w.Service, Then: sim.ThenBlock, BlockFor: w.Think}
	})
}

// Requests returns completed (started) request iterations — the
// throughput numerator for E6.
func (w *Server) Requests() int64 { return w.requests }

// AsymmetricGroups assigns the first g0 cores to group 0 and the rest to
// group 1.
func AsymmetricGroups(cores, g0 int) []int {
	if g0 <= 0 || g0 >= cores {
		panic(fmt.Sprintf("workload: AsymmetricGroups(%d, %d)", cores, g0))
	}
	groups := make([]int, cores)
	for i := g0; i < cores; i++ {
		groups[i] = 1
	}
	return groups
}

// GroupTrapGroups returns the symmetric half/half group assignment.
func GroupTrapGroups(cores int) []int { return AsymmetricGroups(cores, cores/2) }

// DBTrap is the database scenario of E6 on a 4-core, two-group machine:
//
//	group 0: core 0 idle, core 1 running the weight-8192 hog;
//	group 1: cores 2-3 hosting 5 closed-loop server workers.
//
// avg(group 0) = 4096 while avg(group 1) ≤ 2560 even with every worker
// runnable, so the group-average filter never lets core 0 steal: it
// idles forever while cores 2-3 run the five workers. A work-conserving
// policy migrates workers to core 0. Expected shape: ≈25% request-
// throughput loss for the buggy policy — the paper's database number.
type DBTrap struct {
	// Server is the measured workload.
	Server *Server

	combined *Combined
}

// NewDBTrap builds the canonical database trap.
func NewDBTrap() *DBTrap {
	srv := &Server{
		Workers:    5,
		Service:    2000,
		Think:      1000,
		SpawnCores: []int{2, 3},
	}
	return &DBTrap{
		Server:   srv,
		combined: &Combined{Label: "db-trap", Parts: []Workload{&Pinned{Core: 1, Weight: 8192}, srv}},
	}
}

// Cores returns the machine width the trap is calibrated for.
func (*DBTrap) Cores() int { return 4 }

// Groups returns the trap's group assignment.
func (*DBTrap) Groups() []int { return GroupTrapGroups(4) }

// Name implements Workload.
func (t *DBTrap) Name() string { return t.combined.Name() }

// Setup implements Workload.
func (t *DBTrap) Setup(s *sim.Simulator) { t.combined.Setup(s) }

// BarrierTrap is the scientific-application scenario of E6 on a 10-core
// machine:
//
//	group 0: cores 0-7, with the weight-65536 hog on core 1;
//	group 1: cores 8-9, where 8 barrier threads are born.
//
// avg(group 0) = 8192 while avg(group 1) ≤ 4096, so the buggy filter
// confines all 8 threads to 2 cores: every barrier generation costs
// 4×Work. A work-conserving policy spreads them over the 9 free cores:
// generations cost Work. Expected shape: ≈3-4× slowdown ("many-fold").
type BarrierTrap struct {
	// Barrier is the measured workload.
	Barrier *Barrier

	combined *Combined
}

// NewBarrierTrap builds the canonical scientific-application trap.
// work is the per-generation compute time; pick one that is not a
// multiple of the balance period to avoid phase-locking artifacts.
func NewBarrierTrap(work int64) *BarrierTrap {
	bar := &Barrier{
		Threads:    8,
		Work:       work,
		SpawnCores: []int{8},
	}
	return &BarrierTrap{
		Barrier:  bar,
		combined: &Combined{Label: "barrier-trap", Parts: []Workload{&Pinned{Core: 1, Weight: 65536}, bar}},
	}
}

// Cores returns the machine width the trap is calibrated for.
func (*BarrierTrap) Cores() int { return 10 }

// Groups returns the trap's group assignment.
func (*BarrierTrap) Groups() []int { return AsymmetricGroups(10, 8) }

// Name implements Workload.
func (t *BarrierTrap) Name() string { return t.combined.Name() }

// Setup implements Workload.
func (t *BarrierTrap) Setup(s *sim.Simulator) { t.combined.Setup(s) }
