package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// nominalSeconds is the run length the per-workload op counts are sized
// for (at the seed commit, on 2 vCPUs). -seconds scales the counts from
// here; the work stays fixed, the time follows the code's speed.
const nominalSeconds = 16

// setupReps is how many times an untraced run sets the workload up
// (start, prime, warm-up, tear down — the last one is kept for the timed
// section); setup_s is the median, so a slow disk flush or the first
// set-up's cold caches do not decide it. With three, verifyd-edit's
// set-up (some 400 fsyncs) still differed by 25% between same-code sets.
const setupReps = 5

// timedBlocks is how many consecutive blocks the timed ops are measured
// in, a third of a second each. The machine probe runs between them, each
// block's throughput, median latency and CPU per op are scaled by the
// machine's speed over that block (probe.go), and the run reports the
// median over the blocks. The allocation counts are exact and summed. The
// count scales with the op counts, so the smoke test does not spend its
// time in the probe.
const timedBlocks = 40

// warmupOps is the untimed ops after each set-up: 5 × 10 before the
// first timed op.
const warmupOps = 10

// env is what a workload gets from the harness: the seed its inputs
// derive from, a private scratch directory, the verdict table and the
// tracer (nil on untraced runs).
type env struct {
	seed   uint64
	tmp    string
	oracle oracle
	tr     *tracer
	scale  float64 // op-count multiplier: -seconds/16 × -ops-scale
}

// workload is one named closed-loop workload. One op is the same fixed
// bundle of work every time it is called; prepare is the untimed reset
// that makes that true (flush and re-prime a memo) and may do nothing.
type workload interface {
	// clients is how many goroutines issue ops, each waiting for its
	// reply before the next (closed loop, ≤ nproc).
	clients() int
	// baseOps is the timed op count at -seconds 16 -ops-scale 1.
	baseOps() int
	// follows says which phases of the machine probe the workload's times
	// are scaled by (probe.go).
	follows() follows
	// resets reports whether prepare does anything; when it does, CPU
	// and allocations are sampled around each op so the reset is not
	// billed to it.
	resets() bool
	// setup builds the inputs from e.seed and starts whatever ops talk
	// to; close undoes it.
	setup(e *env) error
	close()
	prepare(i int) error
	// op runs op i on behalf of client c and checks its output against
	// the oracle; an error is a failed op.
	op(c, i int) error
	// finish checks whole-run invariants after the timed ops.
	finish() error
	// counters returns the workload's cumulative counters by name (memo
	// hits, polls, steals…); the traced run reports their deltas.
	counters() map[string]float64
	// layers reports the per-layer metrics of this workload from a traced
	// run (see layers.go); tr holds the ops' spans and counters.
	layers(tr *traceRun, out values) error
}

// usage is a point sample of the process's cumulative cost.
type usage struct {
	cpu     time.Duration // getrusage user+sys: client, server and GC together
	mallocs uint64
	bytes   uint64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
	}
}

func (u *usage) add(from, to usage) {
	u.cpu += to.cpu - from.cpu
	u.mallocs += to.mallocs - from.mallocs
	u.bytes += to.bytes - from.bytes
}

// section is the outcome of one timed run of ops.
type section struct {
	lat    []time.Duration // per-op latency, in issue order per client
	wall   time.Duration   // what ops_per_s divides by
	cost   usage
	failed int
	first  error // first failure, for the log
}

// append folds a later section of the same kind into s.
func (s *section) append(o section) {
	s.lat = append(s.lat, o.lat...)
	s.wall += o.wall
	s.cost.add(usage{}, o.cost)
	s.failed += o.failed
	if s.first == nil {
		s.first = o.first
	}
}

// runOps runs ops timed ops. With one client the wall time is the sum of
// the op latencies, so an untimed prepare between ops is not counted;
// with several it is the wall time of the whole section (there is no
// prepare then).
func runOps(w workload, ops, base int) section {
	sec := section{lat: make([]time.Duration, ops)}
	fail := func(err error) {
		sec.failed++
		if sec.first == nil {
			sec.first = err
		}
	}
	if n := w.clients(); n > 1 {
		var mu sync.Mutex
		var wg sync.WaitGroup
		from := sampleUsage()
		start := time.Now()
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < ops; i += n {
					t0 := time.Now()
					err := w.op(c, base+i)
					sec.lat[i] = time.Since(t0)
					if err != nil {
						mu.Lock()
						fail(err)
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		sec.wall = time.Since(start)
		sec.cost.add(from, sampleUsage())
		return sec
	}
	perOp := w.resets()
	var from usage
	if !perOp {
		from = sampleUsage()
	}
	for i := 0; i < ops; i++ {
		if err := w.prepare(base + i); err != nil {
			fail(fmt.Errorf("prepare: %w", err))
			continue
		}
		if perOp {
			from = sampleUsage()
		}
		t0 := time.Now()
		err := w.op(0, base+i)
		sec.lat[i] = time.Since(t0)
		if perOp {
			sec.cost.add(from, sampleUsage())
		}
		sec.wall += sec.lat[i]
		if err != nil {
			fail(err)
		}
	}
	if !perOp {
		sec.cost.add(from, sampleUsage())
	}
	return sec
}

// newRNG is the seeded stream a workload draws its inputs from; salt keeps
// the workloads' streams apart.
func newRNG(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, salt)) }

// scaled is a base count under the run's scale, at least 1.
func (e *env) scaled(base int) int {
	return max(1, int(math.Round(float64(base)*e.scale)))
}

// outcome is one finished run: what the contract line and the -json
// document are rendered from.
type outcome struct {
	ops     int // timed ops attempted
	failed  int
	metrics values
	notes   []string
}

// newEnv makes the run's scratch directory under out.
func newEnv(out string, seed uint64, orc oracle, scale float64) (*env, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(tmp)
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, tmp: abs, oracle: orc, scale: scale}, nil
}

// setUp starts w and runs its warm-up ops. A warm-up op that fails its
// check is not an error here: the same op fails again in the timed
// section, where it is counted.
func setUp(w workload, e *env) error {
	if err := w.setup(e); err != nil {
		return err
	}
	runOps(w, e.scaled(warmupOps), 0)
	return nil
}

// medianOf is the median of xs.
func medianOf(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// runUntraced is the end-to-end run: set up (five times, median), GC,
// then the fixed count of timed ops in timedBlocks blocks, the gauge
// reading the machine's speed over every set-up and every block.
func runUntraced(name string, e *env) (*outcome, error) {
	g, err := newGauge(newWorkload(name).follows(), e.tmp)
	if err != nil {
		return nil, fmt.Errorf("machine probe: %w", err)
	}
	defer g.close()

	var w workload
	var setups []float64 // seconds at nominal machine speed
	g.mark()
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		w = newWorkload(name)
		if err := setUp(w, e); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		took := time.Since(t0).Seconds()
		setups = append(setups, took*g.lap())
		if k < setupReps-1 {
			w.close()
		}
	}
	defer w.close()

	ops := e.scaled(w.baseOps())
	runtime.GC()
	var all section
	var rates, p50s, cpus, speeds, rawRates []float64
	base := e.scaled(warmupOps)
	g.mark()
	for _, size := range blocks(ops, e.scaled(timedBlocks)) {
		sec := runOps(w, size, base)
		base += size
		sp := g.lap()
		speeds = append(speeds, sp)
		rawRates = append(rawRates, float64(size)/sec.wall.Seconds())
		rates = append(rates, float64(size)/(sec.wall.Seconds()*sp))
		p50s = append(p50s, ms(median(sec.lat))*sp)
		cpus = append(cpus, ms(sec.cost.cpu)/float64(size)*sp)
		all.append(sec)
	}
	out := &outcome{ops: ops, failed: all.failed, metrics: values{}}
	if all.first != nil {
		out.notes = append(out.notes, "first failed op: "+all.first.Error())
	}
	if err := w.finish(); err != nil {
		// A broken whole-run invariant means no op of the run can be
		// trusted, whatever each op's own check said.
		out.failed = ops
		out.notes = append(out.notes, "run invariant broken: "+err.Error())
	}
	if ops < 200 {
		out.notes = append(out.notes, fmt.Sprintf("%d timed ops is below the 200-op floor: percentiles are indicative only", ops))
	}
	if w.follows() != followsNothing {
		out.notes = append(out.notes, fmt.Sprintf(
			"times are at nominal machine speed; the machine ran at %.3f of it (median over the blocks), as measured: ops_per_s %.4f, op_p50_ms %.4f",
			medianOf(speeds), medianOf(rawRates), ms(median(all.lat))))
	} else {
		out.notes = append(out.notes, "times are as measured: this workload is not scaled by the machine probe")
	}
	n := float64(ops)
	m := out.metrics
	m.set("setup_s", medianOf(setups), len(setups))
	m.set("ops_per_s", medianOf(rates), ops)
	m.set("op_p50_ms", medianOf(p50s), ops)
	m.set("cpu_ms_per_op", medianOf(cpus), ops)
	m.set("allocs_per_op", float64(all.cost.mallocs)/n, ops)
	m.set("alloc_kb_per_op", float64(all.cost.bytes)/1024/n, ops)
	return out, nil
}

// blocks splits ops into at most n near-equal consecutive runs.
func blocks(ops, n int) []int {
	n = min(n, ops)
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = ops / n
		if i < ops%n {
			sizes[i]++
		}
	}
	return sizes
}
