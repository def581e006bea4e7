// Command schedbench regenerates the paper-shaped outputs: the E1–E10
// experiment tables of internal/experiment (default mode) and the
// open-loop service tail-latency sweeps (-workload service).
// Interrupting (Ctrl-C) cancels the run wherever it is — mid-state-space
// for the verification experiments, mid-event-loop for a sweep point —
// and exits non-zero.
//
// Usage:
//
//	schedbench                                   # all experiments
//	schedbench -only E3                          # one experiment
//	schedbench -workload service -load 0.9       # one-point tail report
//	schedbench -workload service \
//	    -load 0.60:0.95:0.05 -policy delta2,weighted,cfs-group-buggy,null \
//	    -out BENCH_service.json                  # the committed curve
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/loadgen"
	"repro/internal/policy"
)

func main() {
	os.Exit(run())
}

// run is main minus os.Exit, so deferred cleanup and tests work.
func run() int {
	var (
		only     = flag.String("only", "", "run a single experiment (E1..E10)")
		workload = flag.String("workload", "", `workload mode: "service" runs a tail-latency sweep instead of the experiments`)
		loads    = flag.String("load", "0.60:0.95:0.05", `target load: one value ("0.9"), a comma list ("0.6,0.9"), or "lo:hi:step"`)
		policies = flag.String("policy", "delta2,weighted,cfs-group-buggy,null", "comma-separated registered policies to sweep")
		seed     = flag.Uint64("seed", 1, "sweep seed (fixed seed ⇒ byte-identical report)")
		cores    = flag.Int("cores", 8, "machine width")
		horizon  = flag.Int64("horizon", 2_000_000, "arrival window in ticks per point")
		arrival  = flag.String("arrival", "poisson", `arrival process: "poisson" or "map" (bursty)`)
		dist     = flag.String("dist", "pareto", `service distribution: "pareto" (heavy-tailed) or "exp"`)
		out      = flag.String("out", "", "write the report JSON to this file (default stdout)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var code int
	switch *workload {
	case "service":
		code = runService(ctx, serviceFlags{
			loads: *loads, policies: *policies, seed: *seed, cores: *cores,
			horizon: *horizon, arrival: *arrival, dist: *dist, out: *out,
		})
	case "":
		code = runExperiments(ctx, *only)
	default:
		fmt.Fprintf(os.Stderr, "schedbench: unknown workload %q (want service)\n", *workload)
		return 2
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "schedbench: interrupted")
		if code == 0 {
			code = 1
		}
	}
	return code
}

// runExperiments is the original mode: print the internal/experiment
// tables.
func runExperiments(ctx context.Context, only string) int {
	runners := map[string]func(context.Context) experiment.Result{
		"E1":  experiment.E1Lemma1,
		"E2":  experiment.E2SequentialConvergence,
		"E3":  experiment.E3Counterexample,
		"E4":  experiment.E4Potential,
		"E5":  experiment.E5RoundCost,
		"E6":  experiment.E6WastedCores,
		"E7":  experiment.E7Hierarchical,
		"E8":  experiment.E8Concurrent,
		"E9":  experiment.E9ConvergenceRate,
		"E10": experiment.E10ServiceTail,
	}
	if only != "" {
		run, ok := runners[only]
		if !ok {
			fmt.Fprintf(os.Stderr, "schedbench: unknown experiment %q (want E1..E10)\n", only)
			return 2
		}
		fmt.Println(run(ctx))
		return 0
	}
	for _, r := range experiment.All(ctx) {
		fmt.Println(r)
	}
	return 0
}

type serviceFlags struct {
	loads, policies    string
	seed               uint64
	cores              int
	horizon            int64
	arrival, dist, out string
}

// runService runs a tail-latency sweep per the flags. On cancellation
// the partial report is still rendered (to stderr-adjacent visibility it
// is written wherever -out points) and the exit code is non-zero.
func runService(ctx context.Context, f serviceFlags) int {
	grid, err := parseLoads(f.loads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: %v\n", err)
		return 2
	}
	names := splitNonEmpty(f.policies)
	cfg := loadgen.SweepConfig{
		Policies: names,
		Loads:    grid,
		Cores:    f.cores,
		Horizon:  f.horizon,
		Seed:     f.seed,
		Arrival:  f.arrival,
		Dist:     f.dist,
	}
	rep, runErr := loadgen.RunSweep(ctx, cfg)
	if runErr != nil && rep == nil {
		fmt.Fprintf(os.Stderr, "schedbench: %v (known policies: %v)\n", runErr, policy.Names())
		return 2
	}
	data, err := loadgen.ReportJSON(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: encoding report: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if f.out != "" {
		if err := os.WriteFile(f.out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: %v\n", err)
			return 1
		}
	} else {
		os.Stdout.Write(data)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "schedbench: sweep incomplete: %v\n", runErr)
		return 1
	}
	return 0
}

// parseLoads accepts "0.9", "0.6,0.75,0.9", or "lo:hi:step".
func parseLoads(s string) ([]float64, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("load range %q: want lo:hi:step", s)
		}
		var v [3]float64
		for i, p := range parts {
			f, err := parseFinite(p)
			if err != nil {
				return nil, fmt.Errorf("load range %q: %v", s, err)
			}
			v[i] = f
		}
		lo, hi, step := v[0], v[1], v[2]
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("load range %q: want lo ≤ hi and step > 0", s)
		}
		if n := math.Floor((hi-lo)/step+0.5) + 1; n > maxLoadPoints {
			return nil, fmt.Errorf("load range %q: %.0f points, at most %d", s, n, maxLoadPoints)
		}
		var grid []float64
		// Walk in integer steps to dodge float accumulation drift.
		for i := 0; ; i++ {
			l := lo + float64(i)*step
			if l > hi+step/2 {
				break
			}
			grid = append(grid, roundLoad(l))
		}
		return grid, nil
	}
	var grid []float64
	for _, p := range splitNonEmpty(s) {
		f, err := parseFinite(p)
		if err != nil {
			return nil, fmt.Errorf("load %q: %v", p, err)
		}
		grid = append(grid, f)
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("no load points in %q", s)
	}
	return grid, nil
}

// maxLoadPoints is the most points a load grid holds: every 4-decimal
// load in (0, 0.99].
const maxLoadPoints = 9900

// parseFinite parses a load, lo, hi or step, rejecting NaN and ±Inf.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%s is not finite", s)
	}
	return f, err
}

// roundLoad snaps a grid point to 4 decimals so "0.60:0.95:0.05" yields
// the exact literals 0.6, 0.65, ... the report's validator compares.
func roundLoad(l float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(l, 'f', 4, 64), 64)
	return v
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
