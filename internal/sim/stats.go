package sim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// Stats is the measurement snapshot returned by Run.
type Stats struct {
	// Counters tallies the balancing rounds (the periodic ones), steals
	// idle and periodic, and the applied fault events; Orphaned is read
	// off the machine at snapshot time.
	sched.Counters
	// Duration is the simulated horizon in ticks.
	Duration int64
	// Completed counts tasks that exited.
	Completed int64
	// Throughput is completions per 1000 ticks.
	Throughput float64
	// Latency is the arrival→exit distribution of completed tasks.
	Latency *metrics.Histogram
	// WaitTime is the ready→running distribution (scheduling delay).
	WaitTime *metrics.Histogram
	// Preemptions counts quantum preemptions.
	Preemptions int64
	// WastedCoreTicks integrates idle core-time while another core was
	// overloaded — the §1 "wasted cores" quantity.
	WastedCoreTicks float64
	// IdleCoreTicks integrates all idle core-time.
	IdleCoreTicks float64
	// WastedPct is WastedCoreTicks as a percentage of total capacity.
	WastedPct float64
	// ViolationEpisodes counts distinct idle-while-overloaded intervals.
	ViolationEpisodes int64
	// LongestViolationTicks is the longest single violation episode —
	// the persistence measure that correlates with tail-latency
	// inflation (one long starvation interval hurts p99 far more than
	// the same wasted time as transient blips).
	LongestViolationTicks int64
}

// snapshot assembles the Stats for the current clock.
func (s *Simulator) snapshot() Stats {
	st := Stats{
		Counters:              s.counters,
		Duration:              s.clock,
		Completed:             s.completions,
		Latency:               s.latency,
		WaitTime:              s.waitTime,
		Preemptions:           s.preemptions,
		WastedCoreTicks:       s.violations.WastedCoreSeconds(s.clock),
		IdleCoreTicks:         s.violations.IdleCoreSeconds(s.clock),
		ViolationEpisodes:     s.violations.Episodes(),
		LongestViolationTicks: s.violations.LongestEpisodeAt(s.clock),
	}
	st.Orphaned = int64(len(s.m.Orphans()))
	if s.clock > 0 {
		st.Throughput = float64(st.Completed) * 1000 / float64(s.clock)
		st.WastedPct = 100 * st.WastedCoreTicks / (float64(s.clock) * float64(s.cfg.Cores))
	}
	return st
}

// String renders the headline numbers.
func (st Stats) String() string {
	return fmt.Sprintf(
		"t=%d completed=%d tput=%.2f/ktick p50=%d p99=%d steals=%d fails=%d wasted=%.1f%% episodes=%d",
		st.Duration, st.Completed, st.Throughput,
		st.Latency.Quantile(0.5), st.Latency.Quantile(0.99),
		st.Steals, st.StealFails, st.WastedPct, st.ViolationEpisodes)
}
