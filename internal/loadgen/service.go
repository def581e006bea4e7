package loadgen

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Service is the open-loop service workload: jobs arrive on the
// ArrivalCores (the "network softirq" cores) according to Arrivals,
// carry Work-distributed total work, and — when malleable — fork into k
// parallel tasks shaped by the speedup curve. Arrivals do not wait for
// completions: at high load the backlog is unbounded, which is exactly
// what makes p99/p999 honest (a closed loop self-throttles and hides
// queueing collapse).
//
// Service satisfies the workload zoo's Workload interface. Every sample
// is drawn at Setup time from the simulator's seeded RNG, so one seed
// fixes the complete arrival/work/width sequence.
type Service struct {
	// Arrivals generates interarrival gaps. Required.
	Arrivals ArrivalProcess
	// Work samples per-job total work. Required.
	Work ServiceDist
	// Malleable shapes the parallel-job mixture (zero = all sequential).
	Malleable MalleableSpec
	// Horizon bounds arrival generation: jobs arrive in (start, Horizon).
	// Required.
	Horizon int64
	// ArrivalCores lists the cores job tasks are born on, round-robin
	// across tasks. Empty means core 0 — the fully skewed case. Every
	// task weighs sched.DefaultWeight.
	ArrivalCores []int

	arrived   int64
	completed int64
	offered   int64
	latency   *metrics.Histogram
}

// job tracks one (possibly parallel) job's completion.
type job struct {
	arrival   int64
	remaining int
}

// slabChunk is how many jobs, or job tasks, Setup allocates at a time.
// Chunks are never grown in place, so the pointers the simulator holds
// stay valid; a small chunk keeps each run's unused tail small.
const slabChunk = 64

// Name implements the zoo's Workload interface.
func (w *Service) Name() string {
	return fmt.Sprintf("service(%s/%s/%s)", w.Arrivals.Name(), w.Work.Name(), w.Malleable)
}

// Setup implements the zoo's Workload interface: it pre-samples every
// arrival up to the horizon and schedules the jobs' tasks.
func (w *Service) Setup(s *sim.Simulator) {
	if w.Arrivals == nil || w.Work == nil {
		panic("loadgen: Service needs Arrivals and Work")
	}
	if w.Horizon <= s.Clock() {
		panic(fmt.Sprintf("loadgen: Service.Horizon %d not beyond clock %d", w.Horizon, s.Clock()))
	}
	w.Malleable.validate()
	cores := w.ArrivalCores
	if len(cores) == 0 {
		cores = []int{0}
	}
	if w.latency == nil {
		w.latency = metrics.NewHistogram(32)
	}
	// s(k) for every width a job can draw, computed once: one math.Pow
	// per width instead of one per job.
	speedup := make([]float64, max(w.Malleable.MaxWidth, 1)+1)
	for k := 1; k < len(speedup); k++ {
		speedup[k] = w.Malleable.Speedup(k)
	}
	rng := s.RNG()
	t := s.Clock()
	rr := 0
	var jobs []job
	var tasks []jobTask
	for {
		t += w.Arrivals.Next(rng)
		if t >= w.Horizon {
			return
		}
		work := w.Work.Sample(rng)
		k := 1
		if w.Malleable.ParallelFraction > 0 && rng.Float64() < w.Malleable.ParallelFraction {
			k = 2 + rng.Intn(w.Malleable.MaxWidth-1)
		}
		perTask := int64(math.Ceil(float64(work) / speedup[k]))
		if perTask < 1 {
			perTask = 1
		}
		if len(jobs) == cap(jobs) {
			jobs = make([]job, 0, slabChunk)
		}
		jobs = append(jobs, job{arrival: t, remaining: k})
		j := &jobs[len(jobs)-1]
		w.arrived++
		w.offered += int64(k) * (perTask + 1)
		for i := 0; i < k; i++ {
			if len(tasks) == cap(tasks) {
				tasks = make([]jobTask, 0, slabChunk)
			}
			tasks = append(tasks, jobTask{w: w, j: j, run: perTask})
			s.SpawnAt(t, cores[rr%len(cores)], sched.DefaultWeight, &tasks[len(tasks)-1])
			rr++
		}
	}
}

// jobTask is one task of a job: compute the task's share, then (at the
// exact completion instant, observed via the yield transition) close out
// the job if this was its last piece, and exit on a final one-tick stub.
// The stub is the price of observing completion time exactly; it is
// accounted for in both the offered-work counter and
// MalleableSpec.ExpectedCPU.
type jobTask struct {
	w     *Service
	j     *job
	run   int64
	phase int8
}

// Next implements sim.Behavior.
func (t *jobTask) Next(now int64, _ *sim.RNG) sim.Action {
	if t.phase == 0 {
		t.phase = 1
		return sim.Action{RunFor: t.run, Then: sim.ThenYield}
	}
	if t.phase == 1 {
		t.phase = 2
		t.j.remaining--
		if t.j.remaining == 0 {
			t.w.completed++
			t.w.latency.Record(now - t.j.arrival)
		}
	}
	return sim.Action{RunFor: 1, Then: sim.ThenExit}
}

// Arrived returns the number of jobs generated.
func (w *Service) Arrived() int64 { return w.arrived }

// Completed returns the number of jobs whose every task finished.
func (w *Service) Completed() int64 { return w.completed }

// Latency returns the job sojourn-time distribution (arrival → last
// task's work completion) over completed jobs. Nil before Setup.
func (w *Service) Latency() *metrics.Histogram { return w.latency }

// OfferedUtilization returns offered work as a fraction of the
// machine's capacity over the horizon — the empirical ρ the sweep
// reports next to the target load.
func (w *Service) OfferedUtilization(cores int) float64 {
	if cores <= 0 || w.Horizon <= 0 {
		return 0
	}
	return float64(w.offered) / (float64(cores) * float64(w.Horizon))
}
