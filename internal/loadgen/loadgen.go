// Package loadgen is the open-loop load-generation subsystem: seedable
// arrival processes (Poisson and a bursty Markov-modulated process),
// heavy-tailed and exponential service-time distributions, and malleable
// parallel jobs with per-job speedup curves s(k). It exists to answer
// the question the closed-loop workload zoo cannot: what does a
// balancing policy do to *tail* latency at 60–95% utilization, where
// the paper's wasted-cores bugs turn transient imbalance into long
// queueing episodes.
//
// Everything is deterministic given a seed: all randomness flows through
// the simulator's RNG (one xorshift64* stream per run), and all sampling
// happens at Setup time, so a fixed seed yields byte-identical arrival
// sequences, service times and sweep reports. The arrival/service model
// and the malleable-job speedup framing follow "Towards Optimality in
// Parallel Job Scheduling" (Berg, Dorsman, Harchol-Balter).
package loadgen

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ArrivalProcess generates open-loop interarrival gaps. Implementations
// consume randomness only from the RNG passed to Next, so a fresh
// process replayed against an equally-seeded RNG reproduces the exact
// gap sequence.
type ArrivalProcess interface {
	// Name identifies the process in reports.
	Name() string
	// Next returns the gap to the next arrival, always ≥ 1 tick.
	Next(rng *sim.RNG) int64
}

// Poisson is the memoryless arrival process: exponential interarrival
// gaps with a fixed mean. It is the M in the M/G/k framing of the
// service workload.
type Poisson struct {
	meanGap float64
}

// NewPoisson returns a Poisson process with the given mean interarrival
// gap in ticks.
func NewPoisson(meanGap float64) *Poisson {
	if meanGap <= 0 || math.IsNaN(meanGap) || math.IsInf(meanGap, 0) {
		panic(fmt.Sprintf("loadgen: NewPoisson(%v)", meanGap))
	}
	return &Poisson{meanGap: meanGap}
}

// Name implements ArrivalProcess.
func (p *Poisson) Name() string { return "poisson" }

// Next implements ArrivalProcess.
func (p *Poisson) Next(rng *sim.RNG) int64 { return rng.ExpTicks(p.meanGap) }

// BurstyMAP is a two-state Markov-modulated arrival process: a calm
// state emitting Poisson arrivals at a low rate and a burst state
// emitting them Burstiness times faster, with geometrically distributed
// sojourns of equal expected duration (Dwell ticks) in each state. It
// models the on/off traffic that exposes slow rebalancing: within a
// burst the arrival cores overload faster than a periodic balance round
// can drain them, so tail latency separates policies that look identical
// under smooth Poisson load.
//
// State switches happen at arrival epochs (a Markovian arrival process
// of order 2): after each arrival the process flips state with
// probability gap/Dwell, making the expected time per sojourn Dwell in
// both states and the long-run time split 50/50. The calm gap is chosen
// so the long-run mean gap equals the requested meanGap exactly:
// arrivals per cycle = Dwell/calm + Dwell/burst over 2·Dwell of time,
// hence calm = meanGap·(1+Burstiness)/2.
type BurstyMAP struct {
	calmGap, burstGap float64
	dwell             float64
	burstiness        float64
	inBurst           bool
}

// NewBurstyMAP returns a bursty process with the given long-run mean
// interarrival gap, burst-to-calm rate ratio (> 1) and expected sojourn
// duration per state in ticks. Dwell is clamped up to the calm gap so
// switch probabilities stay ≤ 1.
func NewBurstyMAP(meanGap, burstiness, dwell float64) *BurstyMAP {
	if meanGap <= 0 || math.IsNaN(meanGap) || math.IsInf(meanGap, 0) {
		panic(fmt.Sprintf("loadgen: NewBurstyMAP mean gap %v", meanGap))
	}
	if burstiness <= 1 {
		panic(fmt.Sprintf("loadgen: NewBurstyMAP burstiness %v (want > 1)", burstiness))
	}
	calm := meanGap * (1 + burstiness) / 2
	if dwell < calm {
		dwell = calm
	}
	return &BurstyMAP{
		calmGap:    calm,
		burstGap:   calm / burstiness,
		dwell:      dwell,
		burstiness: burstiness,
	}
}

// Name implements ArrivalProcess.
func (b *BurstyMAP) Name() string {
	return fmt.Sprintf("map(burst=%g,dwell=%g)", b.burstiness, b.dwell)
}

// Next implements ArrivalProcess.
func (b *BurstyMAP) Next(rng *sim.RNG) int64 {
	gap := b.calmGap
	if b.inBurst {
		gap = b.burstGap
	}
	d := rng.ExpTicks(gap)
	if rng.Float64() < float64(d)/b.dwell {
		b.inBurst = !b.inBurst
	}
	return d
}
