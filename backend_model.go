package optsched

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/verify"
)

// modelBackend runs the scenario on the bare scheduler model: tasks are
// placed on their cores' runqueues and balancing rounds execute until
// the machine is work-conserved (or verify.DefaultMaxRounds rounds have
// run). This is the substrate the proof obligations quantify over, so a
// verified policy converging here is exactly what the verifier promised.
type modelBackend struct{}

// Name implements Backend.
func (modelBackend) Name() string { return "model" }

// Execute implements Backend. Arrival times and per-task work are
// ignored — the model has no clock; what it measures is balancing
// behavior: rounds to convergence, tasks migrated, failed optimistic
// attempts, and the final load vector. Fault events fire at balancing
// round boundaries: an event with At == r is applied before round r
// runs, exactly the semantics the fault obligations quantify over.
func (b modelBackend) Execute(ctx context.Context, c *Cluster, sc Scenario, cores int, groups []int) (*Result, error) {
	start := time.Now()
	m := sched.NewMachine(cores)
	for id, g := range groups {
		m.Core(id).Group = g
		m.Core(id).Node = g
	}
	for _, batch := range sc.Batches {
		for i := 0; i < batch.Tasks; i++ {
			m.Spawn(batch.Core%cores, batch.weight())
		}
	}
	p := c.NewPolicy()
	rng := sim.NewRNG(c.Seed())
	faults := sc.Faults

	res := newResult(b, c, sc, cores)
	for res.Rounds < verify.DefaultMaxRounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Apply every fault event due at this round index. While events
		// are still pending the machine's shape is not final, so neither
		// conservation nor a stuck round may end the run early.
		for len(faults) > 0 && faults[0].At <= res.Rounds {
			ev := faults[0]
			faults = faults[1:]
			rescued, err := m.ApplyFault(p, sched.FaultEvent{Core: ev.Core % cores, Revive: ev.Revive})
			if err != nil {
				return nil, fmt.Errorf("optsched: scenario %q fault schedule: %w", sc.Name, err)
			}
			res.CountFault(rescued)
		}
		if len(faults) == 0 && m.WorkConserved() {
			break
		}
		var rr sched.RoundResult
		if c.Sequential() {
			rr = sched.SequentialRound(p, m)
		} else {
			rr = sched.ConcurrentRound(p, m, rng.Perm(cores))
		}
		res.CountRound(rr)
		if rr.TasksMoved() == 0 && len(faults) == 0 {
			break // stuck: no steal possible, conserved or not
		}
	}
	res.Converged = m.WorkConserved()
	res.Orphaned = int64(len(m.Orphans()))
	res.FinalLoads = m.Loads()
	res.Wall = time.Since(start)
	return res, nil
}
