package optsched

import (
	"context"
	"fmt"
)

// Backend is one execution substrate for the verified three-step
// protocol. The library ships three — the bare model (BackendModel), the
// discrete-event simulator (BackendSim) and the real work-stealing
// executor (BackendExecutor) — which is the paper's portability claim
// made concrete: one policy abstraction, proved once, runs anywhere.
//
// Execute receives the owning cluster (for the policy factory, seed and
// mode), the scenario, and the resolved machine width and group
// assignment (len(groups) == cores when non-nil). Cluster.Run filters
// simulator-native Workload scenarios to BackendSim before Execute is
// called, so other backends only ever see Batches. Implementations must
// honor ctx and return a Result with the fields their substrate can
// measure (see Result's field docs).
type Backend interface {
	// Name identifies the backend in results and listings.
	Name() string
	// Execute runs the scenario and returns the measurement snapshot.
	Execute(ctx context.Context, c *Cluster, sc Scenario, cores int, groups []int) (*Result, error)
}

// The built-in execution backends.
var (
	// BackendModel executes balancing rounds on the bare scheduler model
	// until work conservation — the substrate the proofs quantify over.
	BackendModel Backend = modelBackend{}
	// BackendSim executes the scenario on the discrete-event multicore
	// simulator — the substrate the wasted-cores experiments run on.
	BackendSim Backend = simBackend{}
	// BackendExecutor executes the scenario on the real work-stealing
	// goroutine pool — the protocol under actual concurrency. A task
	// holds its worker by sleeping Work microseconds, and on Linux a
	// sleep under ~1 ms takes ~1.1 ms: a sub-millisecond Work measures
	// the timer, not the work.
	BackendExecutor Backend = executorBackend{}
)

// Backends lists the built-in backends in model → sim → executor order.
func Backends() []Backend {
	return []Backend{BackendModel, BackendSim, BackendExecutor}
}

// BackendByName resolves a built-in backend from its name — the CLI
// entry point.
func BackendByName(name string) (Backend, error) {
	for _, b := range Backends() {
		if b.Name() == name {
			return b, nil
		}
	}
	known := make([]string, 0, 3)
	for _, b := range Backends() {
		known = append(known, b.Name())
	}
	return nil, fmt.Errorf("optsched: unknown backend %q (known: %v)", name, known)
}

// newResult seeds the shared Result fields for one run.
func newResult(b Backend, c *Cluster, sc Scenario, cores int) *Result {
	return &Result{
		Backend:  b.Name(),
		Policy:   c.PolicyName(),
		Scenario: sc.Name,
		Cores:    cores,
		Tasks:    sc.TotalTasks(),
	}
}
