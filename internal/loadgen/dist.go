package loadgen

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ServiceDist samples per-job total work (CPU ticks). Like the arrival
// processes, implementations draw only from the RNG handed to Sample.
type ServiceDist interface {
	// Name identifies the distribution in reports.
	Name() string
	// Sample returns one job's total work in ticks, always ≥ 1.
	Sample(rng *sim.RNG) int64
	// Mean returns the analytic expected work in ticks.
	Mean() float64
}

// Exponential is the light-tailed baseline: exponentially distributed
// work with a fixed mean (the G = M case).
type Exponential struct {
	mean float64
}

// NewExponential returns an exponential service distribution with the
// given mean work in ticks.
func NewExponential(mean float64) *Exponential {
	if mean <= 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		panic(fmt.Sprintf("loadgen: NewExponential(%v)", mean))
	}
	return &Exponential{mean: mean}
}

// Name implements ServiceDist.
func (e *Exponential) Name() string { return fmt.Sprintf("exp(mean=%g)", e.mean) }

// Sample implements ServiceDist.
func (e *Exponential) Sample(rng *sim.RNG) int64 { return rng.ExpTicks(e.mean) }

// Mean implements ServiceDist.
func (e *Exponential) Mean() float64 { return e.mean }

// BoundedPareto is the heavy-tailed service law: density ∝ x^(−α−1) on
// [L, H]. With α ≤ 2 the variance is dominated by the truncation bound
// H, which is what makes p99/p999 diverge from the mean — most jobs are
// tiny, a rare few are H/L times larger, and a scheduler that strands
// an elephant behind a wasted core inflates the whole tail.
type BoundedPareto struct {
	alpha float64
	l, h  float64
	norm  float64 // 1 − (L/H)^α, the CDF's normalizer
}

// NewBoundedPareto returns a bounded Pareto distribution with shape
// alpha on [l, h] ticks.
func NewBoundedPareto(alpha float64, l, h int64) *BoundedPareto {
	if alpha <= 0 || math.IsNaN(alpha) || l < 1 || h <= l {
		panic(fmt.Sprintf("loadgen: NewBoundedPareto(%v, %d, %d)", alpha, l, h))
	}
	p := &BoundedPareto{alpha: alpha, l: float64(l), h: float64(h)}
	p.norm = 1 - math.Pow(p.l/p.h, p.alpha)
	return p
}

// Name implements ServiceDist.
func (p *BoundedPareto) Name() string {
	return fmt.Sprintf("bpareto(alpha=%g,min=%.0f,max=%.0f)", p.alpha, p.l, p.h)
}

// Sample implements ServiceDist by inverse-CDF: F(x) = (1 − (L/x)^α) /
// (1 − (L/H)^α), inverted over a uniform u.
func (p *BoundedPareto) Sample(rng *sim.RNG) int64 {
	u := rng.Float64()
	x := p.l * math.Pow(1-u*p.norm, -1/p.alpha)
	// Discretize; the clamps guard floating-point spill at u→1.
	d := int64(x)
	if d < int64(p.l) {
		d = int64(p.l)
	}
	if d > int64(p.h) {
		d = int64(p.h)
	}
	return d
}

// Mean implements ServiceDist with the closed form of the truncated
// first moment (the α = 1 branch is the logarithmic limit).
func (p *BoundedPareto) Mean() float64 {
	if p.alpha == 1 {
		return p.l / (1 - p.l/p.h) * math.Log(p.h/p.l)
	}
	la := math.Pow(p.l, p.alpha)
	return p.alpha * la / (p.norm * (p.alpha - 1)) *
		(math.Pow(p.l, 1-p.alpha) - math.Pow(p.h, 1-p.alpha))
}
