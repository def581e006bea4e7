package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// traceRun is what a workload's layers method gets from the traced run:
// the two halves' ops (first untraced, then traced), the counters over
// the traced half, and the tracer to record its replay spans in. While
// layers runs, ops are untraced again (env.tr is nil), so probe ops do
// not pollute the traced half's spans.
type traceRun struct {
	e        *env
	t        *tracer
	ops      int // per half
	untraced section
	traced   section
	delta    map[string]float64 // workload counters over the traced half
}

// p50 is the untraced half's median op latency: what the service layer's
// self times are taken against.
func (tr *traceRun) p50() time.Duration { return median(tr.untraced.lat) }

// perOp is a counter of the traced half per op.
func (tr *traceRun) perOp(counter string) float64 { return tr.delta[counter] / float64(tr.ops) }

// reps scales a probe's repetition count like the op counts.
func (tr *traceRun) reps(base int) int { return tr.e.scaled(base) }

// span times fn as one span covering calls calls.
func (tr *traceRun) span(name string, round, calls int, fn func()) {
	id := tr.t.begin(name, -1, round)
	fn()
	tr.t.endCalls(id, calls)
}

// traceBlocks is how many untraced/traced block pairs a traced run
// alternates through.
const traceBlocks = 5

// traceOps is how many ops each half of a traced run replays.
func traceOps(w workload) int { return max(50, w.baseOps()/40) }

// gcCPU reads the runtime's cumulative GC and busy CPU seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// runTraced is the layer-replay run: the workload's ops once untraced and
// once with spans, then each layer's public functions timed from outside.
func runTraced(name string, e *env, outDir string) (*outcome, error) {
	w := newWorkload(name)
	defer w.close()
	if err := setUp(w, e); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	// The per-layer numbers are as measured, never scaled; the probe's
	// memory phases run between the blocks only to say, as machine.speed,
	// what kind of minute they were measured in.
	g, err := newGauge(followsMemory, "")
	if err != nil {
		return nil, fmt.Errorf("machine probe: %w", err)
	}
	defer g.close()
	n := e.scaled(traceOps(w))
	base := e.scaled(warmupOps)
	tr := &traceRun{e: e, t: newTracer(), ops: n}

	// The halves alternate in blocks, so slow drift of the machine's speed
	// lands on both alike and the overhead is not a measure of the drift.
	runtime.GC()
	gc0, busy0 := gcCPU()
	tr.delta = map[string]float64{}
	var speeds []float64
	g.mark()
	for _, size := range blocks(n, traceBlocks) {
		tr.untraced.append(runOps(w, size, base))
		before := w.counters()
		e.tr = tr.t
		tr.traced.append(runOps(w, size, base+size))
		e.tr = nil
		for k, v := range w.counters() {
			tr.delta[k] += v - before[k]
		}
		base += 2 * size
		speeds = append(speeds, g.lap())
	}
	gc1, busy1 := gcCPU()

	out := &outcome{ops: 2 * n, metrics: values{}}
	out.failed = tr.untraced.failed + tr.traced.failed
	for _, sec := range []section{tr.untraced, tr.traced} {
		if sec.first != nil {
			out.notes = append(out.notes, "first failed op: "+sec.first.Error())
			break
		}
	}
	if err := w.finish(); err != nil {
		out.failed = out.ops
		out.notes = append(out.notes, "run invariant broken: "+err.Error())
	}

	m := out.metrics
	if err := w.layers(tr, m); err != nil {
		return nil, fmt.Errorf("%s: layer replay: %w", name, err)
	}
	probePolicy(tr, m)
	probeSched(tr, m)

	// The closed-loop caller's tail, over both sides' ops.
	all := sortedCopy(append(append([]time.Duration(nil), tr.untraced.lat...), tr.traced.lat...))
	m.set("client.op_p90_ms", ms(quantile(all, 0.9)), len(all))
	m.set("client.op_p99_ms", ms(quantile(all, 0.99)), len(all))

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("runtime.gc_cpu_share", ratio(gc1-gc0, busy1-busy0), 2*n)
	m.set("runtime.heap_sys_mb", float64(mem.HeapSys)/(1<<20), 1)
	m.set("trace.overhead_share", 1-ratio(tr.untraced.wall.Seconds(), tr.traced.wall.Seconds()), 2*n)
	m.set("machine.speed", medianOf(speeds), len(speeds))
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0, 0) // a layer this workload bypasses
		}
	}
	if err := tr.t.write(outDir, name); err != nil {
		return nil, err
	}
	return out, nil
}
