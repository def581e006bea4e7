package optsched

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/workload"
)

// Workload is a simulator-native workload generator (see
// internal/workload): barrier applications, open-loop databases, the E6
// traps. Scenarios carrying one run only on BackendSim; portable
// scenarios describe their work as Batches instead.
type Workload = workload.Workload

// Batch is one group of identical tasks arriving together: the portable
// unit of work every backend knows how to interpret.
//
//   - BackendModel places the tasks on the core's runqueue and balances
//     until work conservation (arrival time is ignored — the model has no
//     clock).
//   - BackendSim spawns the tasks at time At (in virtual ticks, 1 tick =
//     1µs) and each computes for Work ticks before exiting.
//   - BackendExecutor submits the tasks up front to the worker with the
//     batch's core index and each holds its worker for Work microseconds
//     of wall time (sleeping, not spinning — wall-clock results are
//     comparable across backends, CPU-time measurements are not; arrival
//     time is ignored — submission is the arrival).
type Batch struct {
	// At is the arrival time in virtual ticks (BackendSim only).
	At int64
	// Core is where the tasks are born. Backends with fewer cores than
	// Core treat it modulo the machine width.
	Core int
	// Tasks is how many tasks the batch contains.
	Tasks int
	// Work is each task's CPU demand: virtual ticks in the simulator,
	// microseconds of wall time holding a worker in the executor
	// (sleeping, not spinning), ignored by the model. Zero means
	// DefaultWork.
	Work int64
	// Weight is each task's load weight (zero = DefaultWeight), the input
	// to weight-aware policies on the model and simulator backends. The
	// executor ignores it: its published load counters are thread
	// counts, so every executor task weighs one.
	Weight int64
}

// DefaultWork is the per-task CPU demand a Batch gets when it leaves
// Work zero: 1000 virtual ticks (1ms) — long enough for balancing rounds
// to observe the queue, short enough for quick runs.
const DefaultWork int64 = 1000

// DefaultWeight is the per-task load weight used when a Batch leaves
// Weight zero — the unit weight of a default-niceness thread.
const DefaultWeight int64 = 1024

// work returns the batch's effective per-task CPU demand.
func (b Batch) work() int64 {
	if b.Work > 0 {
		return b.Work
	}
	return DefaultWork
}

// weight returns the batch's effective per-task load weight.
func (b Batch) weight() int64 {
	if b.Weight > 0 {
		return b.Weight
	}
	return DefaultWeight
}

// FaultEvent is one scripted fail-stop core fault or hotplug recovery,
// the portable unit of a fault schedule. Like Batch, only the
// interpretation of time changes across backends:
//
//   - BackendModel applies the event before balancing-round index At
//     (fail: the core goes offline, its queue is re-homed through the
//     policy's rescue rule or stranded without one; revive: the core
//     rejoins and may be stolen from/to again).
//   - BackendSim applies it at virtual tick At, preempting whatever the
//     core was running (the interrupted task keeps its remaining work).
//   - BackendExecutor applies it after At microseconds of wall time:
//     the worker goroutine stops executing and its queue is re-homed
//     (or stranded) exactly like the model.
type FaultEvent struct {
	// At is when the event fires: balancing-round index on the model,
	// virtual ticks on the simulator, elapsed microseconds of wall time
	// on the executor.
	At int64
	// Core is the core that fails or revives. Backends with fewer cores
	// treat it modulo the machine width, like Batch.Core.
	Core int
	// Revive marks a hotplug recovery instead of a failure.
	Revive bool
}

// Scenario is a backend-portable workload description: where tasks are
// born, how many, and how much work each carries. The same Scenario runs
// unchanged on the model, the simulator and the real executor via
// Cluster.Run — only the interpretation of "work" changes (see Batch).
//
// A scenario with no Batches and no Workload describes an already-idle
// machine — a legitimate state in the model-checker style — and every
// backend returns a trivially converged Result for it.
type Scenario struct {
	// Name identifies the scenario in results.
	Name string
	// Cores is the machine width when positive; otherwise the cluster
	// topology's width, else 8.
	Cores int
	// Groups assigns cores to scheduling groups (NUMA nodes); nil means
	// the cluster topology's assignment (when widths match) or a flat
	// machine.
	Groups []int
	// Batches lists the scenario's work, the portable representation.
	Batches []Batch
	// Horizon bounds the simulator's virtual time when positive, else
	// 1,000,000 ticks (BackendSim only; the model runs to convergence,
	// the executor to completion).
	Horizon int64
	// Workload optionally carries a simulator-native generator instead
	// of Batches. Scenarios with a Workload run only on BackendSim;
	// Cluster.Run rejects them on the other backends.
	Workload Workload
	// Faults is the scenario's fault schedule, applied in order on every
	// backend. Empty means a healthy machine.
	Faults []FaultEvent
}

// TotalTasks sums the scenario's batch sizes. Workload-driven scenarios
// report zero: their task count is up to the generator.
func (sc Scenario) TotalTasks() int {
	n := 0
	for _, b := range sc.Batches {
		n += b.Tasks
	}
	return n
}

// validate checks the scenario against a resolved machine width.
func (sc Scenario) validate(cores int) error {
	if sc.Name == "" {
		return fmt.Errorf("optsched: scenario needs a Name")
	}
	if sc.Workload != nil && len(sc.Batches) > 0 {
		return fmt.Errorf("optsched: scenario %q has both Batches and a Workload; pick one", sc.Name)
	}
	for i, b := range sc.Batches {
		if b.Tasks <= 0 {
			return fmt.Errorf("optsched: scenario %q batch %d has %d tasks", sc.Name, i, b.Tasks)
		}
		if b.Core < 0 {
			return fmt.Errorf("optsched: scenario %q batch %d on negative core %d", sc.Name, i, b.Core)
		}
		if b.At < 0 || b.Work < 0 || b.Weight < 0 {
			return fmt.Errorf("optsched: scenario %q batch %d has negative At/Work/Weight", sc.Name, i)
		}
	}
	if sc.Groups != nil && len(sc.Groups) != cores {
		return fmt.Errorf("optsched: scenario %q has %d group entries for %d cores",
			sc.Name, len(sc.Groups), cores)
	}
	if err := validateFaults(sc.Faults, cores); err != nil {
		return fmt.Errorf("optsched: scenario %q: %w", sc.Name, err)
	}
	return nil
}

// validateFaults replays a fault schedule on a bare machine, rejecting
// schedules no backend could apply: out-of-order events, or one that
// sched.Machine.ApplyFault refuses (failing an already-offline core,
// reviving an online one, taking the last online core down). Core
// indices wrap modulo the machine width first, exactly as the backends
// apply them.
func validateFaults(events []FaultEvent, cores int) error {
	if len(events) == 0 {
		return nil
	}
	m := sched.NewMachine(cores)
	var prev int64
	for i, ev := range events {
		if ev.At < 0 {
			return fmt.Errorf("fault event %d has negative At %d", i, ev.At)
		}
		if ev.At < prev {
			return fmt.Errorf("fault event %d at %d is out of order (previous event at %d)", i, ev.At, prev)
		}
		prev = ev.At
		if ev.Core < 0 {
			return fmt.Errorf("fault event %d on negative core %d", i, ev.Core)
		}
		if _, err := m.ApplyFault(nil, sched.FaultEvent{Core: ev.Core % cores, Revive: ev.Revive}); err != nil {
			return fmt.Errorf("fault event %d: %w", i, err)
		}
	}
	return nil
}

// ScenarioFromLoads builds the model-checker-style scenario: loads[i]
// unit tasks born on core i, the shape of the paper's 0/1/2
// counterexample machines.
func ScenarioFromLoads(name string, loads ...int) Scenario {
	sc := Scenario{Name: name, Cores: len(loads)}
	for core, n := range loads {
		if n > 0 {
			sc.Batches = append(sc.Batches, Batch{Core: core, Tasks: n})
		}
	}
	return sc
}

// SkewedScenario builds the canonical balancing stress: every task born
// on core 0, as if one connection produced all the work. The balancer
// must spread it.
func SkewedScenario(name string, tasks int, work int64) Scenario {
	return Scenario{Name: name, Batches: []Batch{{Core: 0, Tasks: tasks, Work: work}}}
}

// ForkJoinScenario builds `make -j`-style build bursts: waves batches
// of width tasks each, forking on core, separated by gap (virtual
// ticks; the executor submits everything up front).
func ForkJoinScenario(name string, waves, width int, work, gap int64, core int) Scenario {
	sc := Scenario{Name: name}
	for wave := 0; wave < waves; wave++ {
		sc.Batches = append(sc.Batches,
			Batch{At: int64(wave) * gap, Core: core, Tasks: width, Work: work})
	}
	return sc
}

// BurstyScenario builds square-wave load: bursts of tasks arriving
// together on one core, separated by quiet periods — the pattern that
// exposes slow rebalancing as latency spikes. It is the same batch
// shape as ForkJoinScenario under workload-specific parameter names.
func BurstyScenario(name string, bursts, tasksPerBurst int, work, period int64, core int) Scenario {
	return ForkJoinScenario(name, bursts, tasksPerBurst, work, period, core)
}
