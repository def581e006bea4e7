// Package workload provides the synthetic workloads used to reproduce
// the paper's §1 motivation numbers (Lozi et al.'s wasted-cores
// scenarios): barrier-synchronized scientific applications, a
// closed-loop database-style server, pinned heavy threads, and the
// calibrated traps that combine them. Every generator is deterministic
// given the simulator's seed.
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Workload populates a simulator with tasks and arrival processes.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Setup schedules the workload's arrivals on the simulator. Must be
	// called before the first Run.
	Setup(s *sim.Simulator)
}

// Barrier is the "scientific application" of the paper's motivation: N
// threads compute for Work ticks, synchronize on a barrier, and repeat.
// One straggler core running two threads doubles every iteration for
// everyone — which is why wasted cores hurt these applications many-fold.
type Barrier struct {
	// Threads is the number of barrier participants.
	Threads int
	// Work is the per-iteration compute time per thread.
	Work int64
	// Iterations bounds the generations (0 = unbounded).
	Iterations int64
	// SpawnCores lists the cores the threads initially land on,
	// round-robin. Empty means core 0 — the worst case the balancer
	// must fix.
	SpawnCores []int

	bar *sim.Barrier
}

// Name implements Workload.
func (w *Barrier) Name() string { return fmt.Sprintf("barrier(n=%d,work=%d)", w.Threads, w.Work) }

// Setup implements Workload.
func (w *Barrier) Setup(s *sim.Simulator) {
	if w.Threads <= 0 {
		panic("workload: Barrier.Threads must be positive")
	}
	cores := w.SpawnCores
	if len(cores) == 0 {
		cores = []int{0}
	}
	w.bar = sim.NewBarrier(w.Threads)
	for i := 0; i < w.Threads; i++ {
		core := cores[i%len(cores)]
		s.SpawnAt(0, core, 1024, sim.BarrierLoop(w.bar, w.Work, w.Iterations))
	}
}

// Generations returns the completed barrier generations — the workload's
// throughput metric (iterations of the scientific application).
func (w *Barrier) Generations() int64 {
	if w.bar == nil {
		return 0
	}
	return w.bar.Generation
}

// Pinned is a single long-running heavy thread — the high-load R-style
// process of the Lozi group-imbalance scenario. It occupies its core
// forever and, with a large weight, poisons group load averages.
type Pinned struct {
	// Core is where the thread runs.
	Core int
	// Weight is the thread's load weight (e.g. 8192 for a nice -20-ish
	// hog).
	Weight int64
}

// Name implements Workload.
func (w *Pinned) Name() string { return fmt.Sprintf("pinned(core=%d,w=%d)", w.Core, w.Weight) }

// Setup implements Workload.
func (w *Pinned) Setup(s *sim.Simulator) {
	weight := w.Weight
	if weight <= 0 {
		weight = 8192
	}
	// A huge slice: the thread never yields; since it is always the
	// current task and never queued, no policy can migrate it — the
	// model's equivalent of a pinned thread.
	s.SpawnAt(0, w.Core, weight, sim.RunForever(1<<40))
}

// Combined composes several workloads into one.
type Combined struct {
	// Parts are set up in order.
	Parts []Workload
	// Label overrides the generated name when non-empty.
	Label string
}

// Name implements Workload.
func (w *Combined) Name() string {
	if w.Label != "" {
		return w.Label
	}
	name := "combined("
	for i, p := range w.Parts {
		if i > 0 {
			name += "+"
		}
		name += p.Name()
	}
	return name + ")"
}

// Setup implements Workload.
func (w *Combined) Setup(s *sim.Simulator) {
	for _, p := range w.Parts {
		p.Setup(s)
	}
}
