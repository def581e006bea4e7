package optsched

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/sched"
)

// executorBackend runs the scenario on the real work-stealing goroutine
// pool: one worker per core, lock-free selection over published load
// counters, locked re-validated steals — the verified protocol under
// actual Go concurrency.
type executorBackend struct{}

// Name implements Backend.
func (executorBackend) Name() string { return "executor" }

// Execute implements Backend. Batch arrival times are ignored (all work
// is submitted up front — submission is the arrival) and each task
// occupies its worker for Work microseconds of real time. Fault events
// fire after At microseconds of wall time, fail-stopping and reviving
// workers while the run drains; a schedule that strands tasks forever
// (rescue-less policy, no revive) blocks completion until ctx fires. On
// cancellation the pool is closed and drains its remaining queue in the
// background; the run's error is ctx's.
func (b executorBackend) Execute(ctx context.Context, c *Cluster, sc Scenario, cores int, groups []int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	pool := engine.NewPool(cores, func() sched.Policy { return c.NewPolicy() },
		engine.Options{Groups: groups})
	if len(sc.Faults) > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for _, ev := range sc.Faults {
				if d := time.Duration(ev.At)*time.Microsecond - time.Since(start); d > 0 {
					select {
					case <-time.After(d):
					case <-stop:
						return
					}
				}
				// The schedule was validated against an online-state replay
				// and this goroutine alone applies it, in order, so Kill and
				// Revive refuse none of its events.
				if ev.Revive {
					pool.Revive(ev.Core % cores)
				} else {
					pool.Kill(ev.Core % cores)
				}
			}
		}()
	}
	for _, batch := range sc.Batches {
		if err := ctx.Err(); err != nil {
			pool.Close()
			return nil, err
		}
		d := time.Duration(batch.work()) * time.Microsecond
		for i := 0; i < batch.Tasks; i++ {
			pool.SubmitTo(batch.Core%cores, func() { time.Sleep(d) })
		}
	}
	pool.Close()

	done := make(chan struct{})
	go func() {
		pool.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	st := pool.Stats()
	res := newResult(b, c, sc, cores)
	res.Completed = st.Executed
	res.Counters = st.Counters
	res.Converged = res.Completed >= int64(res.Tasks)
	res.Wall = time.Since(start)
	return res, nil
}
