package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sched"
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
// The points are independent, so they run side by side on up to
// GOMAXPROCS goroutines, the caller's among them, each on a simulator
// recycled from an earlier point; every point fills its own grid slot,
// and the curves are assembled in grid order afterwards, so the report's
// bytes do not depend on GOMAXPROCS. Cancellation propagates into the
// event loop of every running simulation (not just between points); on
// cancellation, or any other error, RunSweep returns — once every point
// it started has stopped — the curves whose points all finished before
// the first failed one in grid order, alongside that point's error. A
// point that panics stops the sweep the same way, and the panic is
// raised again on the caller's goroutine.
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
	// slots is the grid, policy-major: point (pi, li) is slot
	// pi*len(Loads)+li, filled by whichever worker claims it.
	type slot struct {
		pt       Point
		latency  *metrics.Histogram
		err      error
		panicked any
	}
	nl := len(cfg.Loads)
	slots := make([]slot, len(cfg.Policies)*nl)
	sched.ForEach(len(slots), runtime.GOMAXPROCS(0), func(_, i int) (ok bool) {
		sl := &slots[i]
		defer func() {
			if v := recover(); v != nil {
				sl.panicked, ok = v, false
			}
		}()
		pi, li := i/nl, i%nl
		sl.pt, sl.latency, sl.err = cfg.runPoint(ctx, cfg.Policies[pi], cfg.Loads[li], pointSeed(cfg.Seed, uint64(pi), uint64(li)))
		return sl.err == nil
	})
	for _, sl := range slots {
		if sl.panicked != nil {
			panic(sl.panicked)
		}
	}
	// Claims go in grid order and stop after a failure, so every slot
	// before the first failed one holds a finished point.
	for pi, name := range cfg.Policies {
		curve := PolicyCurve{Policy: name}
		overall := newLatencyHistogram()
		for _, sl := range slots[pi*nl : (pi+1)*nl] {
			if sl.err != nil {
				return rep, sl.err
			}
			overall.Merge(sl.latency)
			curve.Points = append(curve.Points, sl.pt)
		}
		curve.Overall = quantilesOf(overall)
		rep.Policies = append(rep.Policies, curve)
	}
	return rep, nil
}

// runner is what a sweep point runs on: a simulator, whose machine and
// task slab outlive the point, and a Service, whose job and task slabs
// do too. runPoint takes one from runners and puts it back after the
// point, so sweeps grow storage only past the largest point run so far.
type runner struct {
	sim sim.Simulator
	svc Service
}

var runners = sync.Pool{New: func() any { return new(runner) }}

// newPolicy builds a point's policy. It is a variable so that tests can
// make one point's construction fail or panic.
var newPolicy = policy.New

// runPoint runs one (policy, load) simulation: a loaded window of
// Horizon ticks, then a half-horizon drain so jobs in flight at the cut
// can finish (uncensored tails). Wasted-core accounting is snapshotted
// at the cut. It returns the point and its job-latency histogram, which
// is the point's own: the runner it ran on is reused.
func (cfg SweepConfig) runPoint(ctx context.Context, name string, load float64, seed uint64) (Point, *metrics.Histogram, error) {
	p, err := newPolicy(name)
	if err != nil {
		return Point{}, nil, err
	}
	dist := cfg.serviceDist()
	meanGap := cfg.Malleable.ExpectedCPU(dist.Mean()) / (load * float64(cfg.Cores))
	arrivalCores := make([]int, cfg.ArrivalCores)
	for i := range arrivalCores {
		arrivalCores[i] = i
	}
	r := runners.Get().(*runner)
	s, svc := &r.sim, &r.svc
	// The Reset drops every pointer the simulator held into the slabs,
	// so the new Service may take its jobs from the start of them.
	s.Reset(sim.Config{
		Cores:       cfg.Cores,
		Policy:      p,
		Groups:      cfg.groups(),
		Seed:        seed,
		IdleBalance: cfg.IdleBalance,
	})
	svc.jobs.Reset()
	svc.tasks.Reset()
	*svc = Service{
		Arrivals:     cfg.arrivalProcess(meanGap),
		Work:         dist,
		Malleable:    cfg.Malleable,
		Horizon:      cfg.Horizon,
		ArrivalCores: arrivalCores,
		jobs:         svc.jobs,
		tasks:        svc.tasks,
	}
	svc.Setup(s)
	loaded, err := s.RunContext(ctx, cfg.Horizon)
	if err == nil {
		_, err = s.RunContext(ctx, cfg.Horizon+cfg.Horizon/2)
	}
	if err != nil {
		runners.Put(r)
		return Point{}, nil, err
	}
	pt := Point{
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
	}
	latency := svc.Latency()
	runners.Put(r)
	return pt, latency, nil
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
