package optsched

import (
	"fmt"
	"strings"
	"time"
)

// Result is the common measurement snapshot every backend returns from
// Cluster.Run: one type for model rounds, simulated runs and real
// executions, so callers compare backends without re-plumbing metrics.
//
// Fields that a backend cannot measure stay at their zero value; the
// per-backend sections below say which. Backend-specific detail beyond
// the shared fields hangs off Sim.
type Result struct {
	// Backend, Policy and Scenario identify the run.
	Backend  string
	Policy   string
	Scenario string
	// Cores is the resolved machine width.
	Cores int

	// Tasks counts the tasks the scenario placed (zero for
	// workload-driven simulator scenarios, whose generators decide).
	Tasks int
	// Completed counts tasks that finished execution. The model backend
	// moves tasks but never runs them, so it reports zero.
	Completed int64
	// Counters tallies the run's balancing and faults. Rounds counts
	// model rounds to convergence or the simulator's periodic rounds;
	// the executor balances on idle and reports zero. Orphaned, read
	// when the run ended, is nonzero only for rescue-less policies under
	// an unrecovered failure: the runtime shadow of a no-task-lost
	// refutation.
	Counters
	// Converged reports the backend's completion criterion: work
	// conservation for the model, all placed tasks retired for the
	// simulator and executor (workload-driven simulations report true at
	// the horizon).
	Converged bool

	// Wall is the real time the run took.
	Wall time.Duration

	// FinalLoads is the per-core thread count after the run (model
	// backend only).
	FinalLoads []int
	// Sim carries the simulator's full measurement snapshot (simulator
	// backend only): virtual time consumed (Duration), wasted-core time
	// (WastedPct), latency histograms and the rest.
	Sim *SimStats
}

// String renders the headline numbers.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s on %s[%d cores]: ", r.Scenario, r.Policy, r.Backend, r.Cores)
	fmt.Fprintf(&b, "tasks=%d completed=%d steals=%d fails=%d", r.Tasks, r.Completed, r.Steals, r.StealFails)
	if r.Rounds > 0 {
		fmt.Fprintf(&b, " rounds=%d", r.Rounds)
	}
	if r.Sim != nil && r.Sim.Duration > 0 {
		fmt.Fprintf(&b, " vticks=%d", r.Sim.Duration)
	}
	if r.Faults > 0 {
		fmt.Fprintf(&b, " faults=%d rescued=%d orphaned=%d", r.Faults, r.Rescued, r.Orphaned)
	}
	if r.FinalLoads != nil {
		fmt.Fprintf(&b, " loads=%v", r.FinalLoads)
	}
	if r.Sim != nil {
		fmt.Fprintf(&b, " wasted=%.1f%%", r.Sim.WastedPct)
	}
	fmt.Fprintf(&b, " converged=%v wall=%v", r.Converged, r.Wall.Round(time.Microsecond))
	return b.String()
}
