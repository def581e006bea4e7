package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/verify"
)

// metricDef names one published metric. BENCHMARK.json carries the same
// names, units and directions; the smoke test fails when the two drift.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, the same six for every
// workload; the four times are scaled to nominal machine speed where the
// workload follows the machine probe (probe.go). The p90 op latency is not
// among them: between two same-code
// sets of ten runs its median moved by 20% on verifyd-cold (p50: 11%) on
// the 2-vCPU VM this was calibrated on, so it is published unbounded as
// the per-layer client.op_p90_ms. Bounds live in BENCHMARK.json only (the
// A/A run reads them from there).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
}

// perLayer is what the -trace run reports. A layer the workload bypasses
// reports 0 for all its metrics — that is the "prediction is no change"
// side of the layer/workload matrix in README.md.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"dsl.parse_us", "us", "lower"},
		{"dsl.forms_us", "us", "lower"},
		{"dsl.analyze_us", "us", "lower"},
		{"dsl.compile_us", "us", "lower"},
		{"policy.select_ns", "ns", "lower"},
		{"policy.dsl_over_native", "ratio", "lower"},
		{"sched.round_us", "us", "lower"},
		{"sched.clone_ns", "ns", "lower"},
		{"sched.key_ns", "ns", "lower"},
		{"statespace.states_per_op", "count", "lower"},
		{"statespace.enum_ns_per_state", "ns", "lower"},
		{"statespace.enum_allocs_per_state", "count", "lower"},
	}
	for _, id := range verify.AllObligations() {
		defs = append(defs, metricDef{"verify.ob_ms." + string(id), "ms", "lower"})
	}
	return append(defs, []metricDef{
		{"verify.states_checked_per_op", "count", "lower"},
		{"verify.schedules_checked_per_op", "count", "lower"},
		{"verify.states_per_s", "state/s", "higher"},
		{"verify.allocs_per_state", "count", "lower"},
		{"verify.direct_ms", "ms", "lower"},
		{"verify.par2_speedup", "ratio", "higher"},
		{"verify.report_json_us", "us", "lower"},
		{"service.submit_hit_us", "us", "lower"},
		{"service.http_self_us", "us", "lower"},
		{"service.daemon_self_ms", "ms", "lower"},
		{"service.hit_ratio", "ratio", "higher"},
		{"service.reruns_per_op", "count", "lower"},
		{"client.polls_per_op", "count", "lower"},
		{"client.op_p90_ms", "ms", "lower"},
		{"client.op_p99_ms", "ms", "lower"},
		{"client.default_poll_wait_ms", "ms", "lower"},
		{"store.append_us", "us", "lower"},
		{"store.appends_per_op", "count", "lower"},
		{"store.wal_bytes_per_op", "B", "lower"},
		{"store.open_recover_ms", "ms", "lower"},
		{"store.compact_ms", "ms", "lower"},
		{"loadgen.gen_ns_per_job", "ns", "lower"},
		{"sim.ticks_per_host_s", "tick/s", "higher"},
		{"sim.completions_per_host_s", "1/s", "higher"},
		{"sim.allocs_per_completion", "count", "lower"},
		{"sim.balance_share", "ratio", "lower"},
		{"sim.steal_fail_ratio", "ratio", "lower"},
		{"metrics.hist_record_ns", "ns", "lower"},
		{"metrics.hist_quantile_us", "us", "lower"},
		{"engine.tasks_per_s", "task/s", "higher"},
		{"engine.null_tasks_per_s", "task/s", "higher"},
		{"engine.submit_ns", "ns", "lower"},
		{"engine.steals_per_ktask", "count", "lower"},
		{"engine.steal_fail_ratio", "ratio", "lower"},
		{"engine.kill_revive_us", "us", "lower"},
		{"runtime.gc_cpu_share", "ratio", "lower"},
		{"runtime.heap_sys_mb", "MiB", "lower"},
		{"trace.overhead_share", "ratio", "lower"},
		{"machine.speed", "ratio", "higher"},
	}...)
}

// value is one measured metric: the number, its unit, and how many
// samples it summarises (timed ops, probe iterations or set-up
// repetitions), so a reader can tell a median of 3 from a median of 300.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// values collects a run's metrics by name.
type values map[string]value

// set records one metric; the unit comes from the definition tables so a
// call site cannot publish a unit BENCHMARK.json does not declare.
func (v values) set(name string, x float64, samples int) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	v[name] = value{Value: x, Unit: unitOf(name), Samples: samples}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(d []time.Duration) time.Duration { return quantile(sortedCopy(d), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b with 0 for an empty denominator (a bypassed layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
