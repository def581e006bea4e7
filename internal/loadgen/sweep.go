package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

// ReportVersion is bumped whenever the sweep semantics or the report
// schema change incompatibly.
const ReportVersion = 2

// SweepConfig parameterizes one tail-latency load sweep: the registered
// policies to compare and the workload shape shared by every (policy,
// load) point. The zero value of every field selects a documented
// default, so SweepConfig{Policies: ..., Loads: ...} is a complete
// experiment. The laws' own parameters are fixed: "map" bursts at
// burstiness× the calm rate with burstDwell-tick sojourns, "pareto"
// draws from a bounded Pareto of shape paretoAlpha over [minWork,
// maxWork], and "exp" has mean meanWork.
type SweepConfig struct {
	// Policies names registered policies, compared in the given order.
	Policies []string
	// Loads are the target utilizations in (0, 0.99], ascending.
	Loads []float64
	// Cores is the machine width (default 8).
	Cores int
	// Groups splits the cores into that many contiguous scheduling
	// groups (default 2; 1 disables grouping).
	Groups int
	// Horizon is the arrival window in ticks (default 2,000,000); each
	// point then drains for another Horizon/2 so tail samples are not
	// censored at the cut.
	Horizon int64
	// Seed fixes every sample of the whole sweep (default 1). Each
	// (policy, load) point derives its own stream, so reordering
	// policies or loads never perturbs other points.
	Seed uint64
	// Arrival picks the arrival process: "poisson" (default) or "map".
	Arrival string
	// Dist picks the service law: "pareto" (default) or "exp".
	Dist string
	// Malleable shapes the parallel-job mixture (default: 25% parallel,
	// widths 2–4, speedup exponent 0.85; MaxWidth 1 forces sequential).
	Malleable MalleableSpec
	// ArrivalCores is how many leading cores receive arrivals (default
	// Cores/4, min 1) — the skew that makes balancing matter.
	ArrivalCores int
	// IdleBalance enables the simulator's idle balancing.
	IdleBalance bool
}

// The fixed parameters of the arrival processes and service laws.
const (
	burstiness  = 8         // "map": burst/calm rate ratio
	burstDwell  = 50_000    // "map": expected sojourn per state, ticks
	paretoAlpha = 1.5       // "pareto": shape
	minWork     = 1_000     // "pareto": smallest job, ticks
	maxWork     = 1_000_000 // "pareto": largest job, ticks
	meanWork    = 3_000     // "exp": mean job, ticks
)

// withDefaults returns cfg with every zero field resolved.
func (cfg SweepConfig) withDefaults() SweepConfig {
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	if cfg.Groups == 0 {
		cfg.Groups = 2
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 2_000_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Arrival == "" {
		cfg.Arrival = "poisson"
	}
	if cfg.Dist == "" {
		cfg.Dist = "pareto"
	}
	if cfg.Malleable == (MalleableSpec{}) {
		cfg.Malleable = MalleableSpec{ParallelFraction: 0.25, MaxWidth: 4, SpeedupExponent: 0.85}
	}
	if cfg.ArrivalCores == 0 {
		cfg.ArrivalCores = cfg.Cores / 4
		if cfg.ArrivalCores < 1 {
			cfg.ArrivalCores = 1
		}
	}
	return cfg
}

// validate rejects structurally bad configs with an error (configs come
// from flags — they are input, not code).
func (cfg SweepConfig) validate() error {
	if len(cfg.Policies) == 0 {
		return fmt.Errorf("loadgen: sweep needs at least one policy")
	}
	for _, name := range cfg.Policies {
		if _, ok := policy.Lookup(name); !ok {
			return fmt.Errorf("loadgen: unknown policy %q (known: %v)", name, policy.Names())
		}
	}
	if len(cfg.Loads) == 0 {
		return fmt.Errorf("loadgen: sweep needs at least one load point")
	}
	prev := 0.0
	for _, l := range cfg.Loads {
		if l <= 0 || l > 0.99 || math.IsNaN(l) {
			return fmt.Errorf("loadgen: load %v outside (0, 0.99]", l)
		}
		if l <= prev {
			return fmt.Errorf("loadgen: loads must be strictly ascending, got %v after %v", l, prev)
		}
		prev = l
	}
	if cfg.Cores < 1 || cfg.ArrivalCores < 1 || cfg.ArrivalCores > cfg.Cores {
		return fmt.Errorf("loadgen: %d arrival cores on a %d-core machine", cfg.ArrivalCores, cfg.Cores)
	}
	if cfg.Groups < 1 || cfg.Groups > cfg.Cores {
		return fmt.Errorf("loadgen: %d groups over %d cores", cfg.Groups, cfg.Cores)
	}
	if cfg.Horizon < 1 {
		return fmt.Errorf("loadgen: horizon %d", cfg.Horizon)
	}
	switch cfg.Arrival {
	case "poisson", "map":
	default:
		return fmt.Errorf("loadgen: unknown arrival process %q (want poisson or map)", cfg.Arrival)
	}
	switch cfg.Dist {
	case "pareto", "exp":
	default:
		return fmt.Errorf("loadgen: unknown service distribution %q (want pareto or exp)", cfg.Dist)
	}
	return nil
}

// serviceDist builds a fresh service distribution per the config.
func (cfg SweepConfig) serviceDist() ServiceDist {
	if cfg.Dist == "exp" {
		return NewExponential(meanWork)
	}
	return NewBoundedPareto(paretoAlpha, minWork, maxWork)
}

// arrivalProcess builds a fresh arrival process with the given mean gap.
func (cfg SweepConfig) arrivalProcess(meanGap float64) ArrivalProcess {
	if cfg.Arrival == "map" {
		return NewBurstyMAP(meanGap, burstiness, burstDwell)
	}
	return NewPoisson(meanGap)
}

// groups returns the contiguous-block group assignment, or nil when
// grouping is disabled.
func (cfg SweepConfig) groups() []int {
	if cfg.Groups <= 1 {
		return nil
	}
	g := make([]int, cfg.Cores)
	for i := range g {
		g[i] = i * cfg.Groups / cfg.Cores
	}
	return g
}

// Quantiles summarizes one latency distribution. P-fields use the
// histogram's upper-edge convention (≤ 1/32 relative error).
type Quantiles struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
}

// Point is one (policy, load) measurement. Latency covers completed
// jobs (arrival → last task's work completion); the wasted-cores fields
// are integrated over the loaded window only (not the drain), so they
// correlate 1:1 with the load target.
type Point struct {
	Load              float64   `json:"load"`
	OfferedUtil       float64   `json:"offered_util"`
	JobsArrived       int64     `json:"jobs_arrived"`
	JobsCompleted     int64     `json:"jobs_completed"`
	Latency           Quantiles `json:"latency"`
	WaitP99           int64     `json:"wait_p99"`
	Steals            int64     `json:"steals"`
	StealFails        int64     `json:"steal_fails"`
	WastedCoreTicks   float64   `json:"wasted_core_ticks"`
	WastedPct         float64   `json:"wasted_pct"`
	ViolationEpisodes int64     `json:"violation_episodes"`
	LongestViolation  int64     `json:"longest_violation_ticks"`
}

// PolicyCurve is one policy's load curve plus the merged distribution
// over every point (the whole-sweep tail).
type PolicyCurve struct {
	Policy  string    `json:"policy"`
	Points  []Point   `json:"points"`
	Overall Quantiles `json:"overall"`
}

// Report is the sweep result. Field order is the wire format: like
// verify.ReportJSON it encodes via plain structs in declaration order,
// so equal contents yield identical bytes — nothing here may move to
// map-backed or reflection-ordered encodings.
type Report struct {
	Version      int           `json:"version"`
	Workload     string        `json:"workload"`
	Seed         uint64        `json:"seed"`
	Cores        int           `json:"cores"`
	Groups       int           `json:"groups"`
	ArrivalCores int           `json:"arrival_cores"`
	Horizon      int64         `json:"horizon"`
	Arrival      string        `json:"arrival"`
	Service      string        `json:"service"`
	Malleable    string        `json:"malleable"`
	Loads        []float64     `json:"loads"`
	Policies     []PolicyCurve `json:"policies"`
}

// ReportJSON renders r in the canonical indented encoding: fixed seed in,
// identical bytes out.
func ReportJSON(r *Report) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ReportFromJSON decodes and validates a sweep report: schema version,
// workload kind, registered policy names, and per-curve point counts
// matching the load grid. CI's bench leg uses it to fail on malformed
// reports.
func ReportFromJSON(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("loadgen: bad report JSON: %w", err)
	}
	if r.Version != ReportVersion {
		return nil, fmt.Errorf("loadgen: report version %d, want %d", r.Version, ReportVersion)
	}
	if r.Workload != "service" {
		return nil, fmt.Errorf("loadgen: report workload %q, want service", r.Workload)
	}
	if len(r.Policies) == 0 || len(r.Loads) == 0 {
		return nil, fmt.Errorf("loadgen: report has no policies or no loads")
	}
	for _, c := range r.Policies {
		if _, ok := policy.Lookup(c.Policy); !ok {
			return nil, fmt.Errorf("loadgen: report names unknown policy %q", c.Policy)
		}
		if len(c.Points) != len(r.Loads) {
			return nil, fmt.Errorf("loadgen: policy %q has %d points for %d loads",
				c.Policy, len(c.Points), len(r.Loads))
		}
		for i, pt := range c.Points {
			if pt.Load != r.Loads[i] {
				return nil, fmt.Errorf("loadgen: policy %q point %d at load %v, grid says %v",
					c.Policy, i, pt.Load, r.Loads[i])
			}
		}
	}
	return &r, nil
}

// RunSweep measures every (policy, load) point of the configured sweep.
// Cancellation propagates into the event loop of the running simulation
// (not just between points); on cancellation the partial report built so
// far is returned alongside ctx's error.
func RunSweep(ctx context.Context, cfg SweepConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dist := cfg.serviceDist()
	rep := &Report{
		Version:      ReportVersion,
		Workload:     "service",
		Seed:         cfg.Seed,
		Cores:        cfg.Cores,
		Groups:       cfg.Groups,
		ArrivalCores: cfg.ArrivalCores,
		Horizon:      cfg.Horizon,
		Arrival:      cfg.arrivalProcess(1).Name(),
		Service:      dist.Name(),
		Malleable:    cfg.Malleable.String(),
		Loads:        cfg.Loads,
	}
	for pi, name := range cfg.Policies {
		curve := PolicyCurve{Policy: name}
		overall := newLatencyHistogram()
		for li, load := range cfg.Loads {
			pt, svc, err := cfg.runPoint(ctx, name, load, pointSeed(cfg.Seed, uint64(pi), uint64(li)))
			if err != nil {
				return rep, err
			}
			overall.Merge(svc.Latency())
			curve.Points = append(curve.Points, pt)
		}
		curve.Overall = quantilesOf(overall)
		rep.Policies = append(rep.Policies, curve)
	}
	return rep, nil
}

// runPoint runs one (policy, load) simulation: a loaded window of
// Horizon ticks, then a half-horizon drain so jobs in flight at the cut
// can finish (uncensored tails). Wasted-core accounting is snapshotted
// at the cut.
func (cfg SweepConfig) runPoint(ctx context.Context, name string, load float64, seed uint64) (Point, *Service, error) {
	p, err := policy.New(name)
	if err != nil {
		return Point{}, nil, err
	}
	dist := cfg.serviceDist()
	meanGap := cfg.Malleable.ExpectedCPU(dist.Mean()) / (load * float64(cfg.Cores))
	arrivalCores := make([]int, cfg.ArrivalCores)
	for i := range arrivalCores {
		arrivalCores[i] = i
	}
	svc := &Service{
		Arrivals:     cfg.arrivalProcess(meanGap),
		Work:         dist,
		Malleable:    cfg.Malleable,
		Horizon:      cfg.Horizon,
		ArrivalCores: arrivalCores,
	}
	s := sim.New(sim.Config{
		Cores:       cfg.Cores,
		Policy:      p,
		Groups:      cfg.groups(),
		Seed:        seed,
		IdleBalance: cfg.IdleBalance,
	})
	svc.Setup(s)
	loaded, err := s.RunContext(ctx, cfg.Horizon)
	if err != nil {
		return Point{}, nil, err
	}
	if _, err := s.RunContext(ctx, cfg.Horizon+cfg.Horizon/2); err != nil {
		return Point{}, nil, err
	}
	return Point{
		Load:              load,
		OfferedUtil:       svc.OfferedUtilization(cfg.Cores),
		JobsArrived:       svc.Arrived(),
		JobsCompleted:     svc.Completed(),
		Latency:           quantilesOf(svc.Latency()),
		WaitP99:           loaded.WaitTime.Quantile(0.99),
		Steals:            loaded.Steals,
		StealFails:        loaded.StealFails,
		WastedCoreTicks:   loaded.WastedCoreTicks,
		WastedPct:         loaded.WastedPct,
		ViolationEpisodes: loaded.ViolationEpisodes,
		LongestViolation:  loaded.LongestViolationTicks,
	}, svc, nil
}

// newLatencyHistogram matches the resolution the Service workload
// records at, so per-point histograms merge into the overall curve.
func newLatencyHistogram() *metrics.Histogram { return metrics.NewHistogram(32) }

// quantilesOf summarizes a latency histogram.
func quantilesOf(h *metrics.Histogram) Quantiles {
	if h == nil || h.Count() == 0 {
		return Quantiles{Max: -1}
	}
	return Quantiles{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// pointSeed derives the per-(policy, load) RNG seed from the sweep seed
// by splitmix64-style mixing, so every point gets an independent stream
// that is stable under re-ordering of the grid.
func pointSeed(seed, pi, li uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(pi+1) + 0xBF58476D1CE4E5B9*(li+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
