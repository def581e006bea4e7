package optsched

import (
	"context"
	"time"

	"repro/internal/sim"
)

// simBackend runs the scenario on the discrete-event multicore
// simulator: virtual time, per-core runqueues, periodic balancing
// rounds — the repository's stand-in for a patched kernel on a testbed.
type simBackend struct{}

// Name implements Backend.
func (simBackend) Name() string { return "sim" }

// Execute implements Backend. The horizon comes from the scenario, else
// 1,000,000 ticks (one simulated second). Cancellation is cooperative
// inside the simulator's event loop (every 256 events).
func (b simBackend) Execute(ctx context.Context, c *Cluster, sc Scenario, cores int, groups []int) (*Result, error) {
	start := time.Now()
	mode := sim.RoundConcurrent
	if c.Sequential() {
		mode = sim.RoundSequential
	}
	s := sim.New(sim.Config{
		Cores:  cores,
		Policy: c.NewPolicy(),
		Groups: groups,
		Mode:   mode,
		Seed:   c.Seed(),
		Ring:   c.ring,
	})
	if sc.Workload != nil {
		sc.Workload.Setup(s)
	} else {
		for _, batch := range sc.Batches {
			for i := 0; i < batch.Tasks; i++ {
				s.SpawnAt(batch.At, batch.Core%cores, batch.weight(), sim.RunOnce(batch.work()))
			}
		}
	}
	for _, ev := range sc.Faults {
		if ev.Revive {
			s.ReviveAt(ev.At, ev.Core%cores)
		} else {
			s.FailAt(ev.At, ev.Core%cores)
		}
	}

	horizon := sc.Horizon
	if horizon <= 0 {
		horizon = 1_000_000
	}
	st, err := s.RunContext(ctx, horizon)
	if err != nil {
		return nil, err
	}

	res := newResult(b, c, sc, cores)
	res.Completed = st.Completed
	res.Counters = st.Counters
	res.Converged = res.Tasks == 0 || res.Completed >= int64(res.Tasks)
	res.Sim = &st
	res.Wall = time.Since(start)
	return res, nil
}
