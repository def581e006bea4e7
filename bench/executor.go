package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sched"
)

// executorTasks is the batch one op submits.
const executorTasks = 20_000

// executorWorkload: a two-worker engine.Pool under Listing 1; one op
// submits 20 000 fixed-spin tasks all to worker 0 and waits, so the
// second worker lives on optimistic steals. This is the lock-free
// executor on real threads: it shares only policy and sched with the
// other workloads and bypasses verify, service and sim entirely.
type executorWorkload struct {
	e     *env
	pool  *engine.Pool
	tasks []engine.Task
	sum   atomic.Uint64
	want  uint64 // checksum of one batch
}

func (w *executorWorkload) clients() int { return 1 }
func (w *executorWorkload) baseOps() int { return 210 }
func (w *executorWorkload) resets() bool { return false }

// follows: the tasks spin in registers; over ten seeds the ops slowed
// with the probe's time to the power 0.08 and repeat within 2% as
// measured, so scaling them would only add the probe's own noise.
func (w *executorWorkload) follows() follows { return followsNothing }

// spin is the task body: n dependent multiply-adds nothing can elide,
// returning a value the checksum folds in.
func spin(n uint32) uint64 {
	x := uint64(n) | 1
	for i := uint32(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// spinSizes is the batch's work sizes: a fixed multiset (so every seed
// does the same total work) in seed order (so which task is stolen when
// differs). The tasks are sized so a steal (about 1 µs and nine
// allocations) is small beside the task it fetches: with tasks a third
// this long, worker 1's share of the batch — and with it allocs_per_op,
// which is nine per steal — ranged over 2.5% between same-code runs;
// at this size over 0.7%.
func spinSizes(seed uint64) []uint32 {
	sizes := make([]uint32, executorTasks)
	for i := range sizes {
		sizes[i] = 1500 + 750*uint32(i%9) // 1500..7500 iterations, ~1.5–7.5 µs
	}
	newRNG(seed, 0xe8ec).Shuffle(len(sizes), func(i, j int) {
		sizes[i], sizes[j] = sizes[j], sizes[i]
	})
	return sizes
}

func (w *executorWorkload) setup(e *env) error {
	w.e = e
	w.tasks = make([]engine.Task, executorTasks)
	for i, n := range spinSizes(e.seed) {
		w.want += spin(n)
		w.tasks[i] = func() { w.sum.Add(spin(n)) }
	}
	w.pool = newPool(func() sched.Policy { return policy.NewDelta2() })
	return nil
}

func newPool(f engine.Factory) *engine.Pool { return engine.NewPool(2, f, engine.Options{}) }

func (w *executorWorkload) close() {
	if w.pool != nil {
		w.pool.Close()
	}
}

func (w *executorWorkload) prepare(int) error { return nil }

func (w *executorWorkload) op(_, i int) error {
	root := w.e.tr.begin("op", -1, i)
	defer w.e.tr.end(root)
	return runBatch(w.e.tr, w.pool, w.tasks, &w.sum, w.want, root, i)
}

// runBatch submits the batch to worker 0, waits, and checks that exactly
// the submitted tasks ran, with the expected checksum.
func runBatch(tr *tracer, pool *engine.Pool, tasks []engine.Task, sum *atomic.Uint64, want uint64, parent, op int) error {
	before := pool.Stats().Executed
	sum.Store(0)
	id := tr.begin("engine.submit", parent, op)
	for _, t := range tasks {
		pool.SubmitTo(0, t)
	}
	tr.endCalls(id, len(tasks))
	id = tr.begin("engine.wait", parent, op)
	pool.Wait()
	tr.end(id)
	if ran := pool.Stats().Executed - before; ran != int64(len(tasks)) {
		return fmt.Errorf("executor ran %d tasks of %d submitted", ran, len(tasks))
	}
	if got := sum.Load(); got != want {
		return fmt.Errorf("executor checksum %#x, want %#x", got, want)
	}
	return nil
}

func (w *executorWorkload) finish() error { return nil }

func (w *executorWorkload) counters() map[string]float64 {
	st := w.pool.Stats()
	return map[string]float64{"steals": float64(st.Steals), "steal_fails": float64(st.StealFails)}
}
