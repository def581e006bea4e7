// Command schedsim runs a scheduling scenario on a chosen policy ×
// backend × machine and prints the unified measurement snapshot — the
// repository's stand-in for running a patched kernel on a testbed. It
// drives the optsched session API, so the same scenario can run on the
// discrete-event simulator (default), the bare model, or the real
// work-stealing executor.
//
// Usage:
//
//	schedsim [-policy name] [-workload name] [-backend model|sim|executor]
//	         [-cores N] [-horizon T] [-seed S] [-sequential] [-trace file.json]
//	         [-hotplug spec]
//
// Workloads: db-trap, barrier-trap, barrier, forkjoin, bursty.
// The trap and barrier workloads are simulator-native (blocking,
// barriers) and run only with -backend sim; forkjoin and bursty are
// portable batch scenarios and run on every backend.
//
// -hotplug attaches a fail-stop fault schedule: comma-separated
// fail:CORE@AT and revive:CORE@AT events, AT in the backend's time unit
// (balancing rounds on the model, virtual ticks on the simulator,
// microseconds of wall time on the executor). E.g.
// "fail:2@50000,revive:2@400000" kills core 2 at t=50000 and brings it
// back at t=400000.
//
// Examples:
//
//	schedsim -policy weighted -workload db-trap
//	schedsim -policy cfs-group-buggy -workload db-trap    # the bug, live
//	schedsim -policy delta2 -workload forkjoin -cores 8
//	schedsim -policy delta2 -workload forkjoin -backend executor
//	schedsim -policy delta2-rescue -workload bursty -hotplug fail:0@100000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	optsched "repro"
	"repro/internal/workload"
)

func main() {
	var (
		policyName  = flag.String("policy", "delta2", "balancing policy (see schedverify -list)")
		wlName      = flag.String("workload", "db-trap", "workload: db-trap, barrier-trap, barrier, forkjoin, bursty")
		backendName = flag.String("backend", "sim", "execution backend: model, sim, executor")
		cores       = flag.Int("cores", 0, "cores (0 = workload's calibrated width)")
		horizon     = flag.Int64("horizon", 1_500_000, "virtual ticks to simulate (1 tick = 1µs)")
		seed        = flag.Uint64("seed", 1, "deterministic RNG seed")
		sequential  = flag.Bool("sequential", false, "use §4.2 sequential rounds instead of optimistic concurrent")
		traceFile   = flag.String("trace", "", "write the last 64k trace events as JSON (sim backend)")
		hotplug     = flag.String("hotplug", "", "fault schedule: fail:CORE@AT,revive:CORE@AT,... (AT in backend time units)")
	)
	flag.Parse()

	backend, err := optsched.BackendByName(*backendName)
	if err != nil {
		fatal(err)
	}
	scenario, metric := buildScenario(*wlName)
	if *cores > 0 {
		scenario.Cores = *cores
		scenario.Groups = nil
	}
	if *hotplug != "" {
		faults, err := parseHotplug(*hotplug)
		if err != nil {
			fatal(err)
		}
		scenario.Faults = faults
	}

	opts := []optsched.Option{
		optsched.WithPolicy(*policyName),
		optsched.WithBackend(backend),
		optsched.WithSeed(*seed),
	}
	if *sequential {
		if backend == optsched.BackendExecutor {
			fatal(fmt.Errorf("schedsim: -sequential has no meaning on the executor backend (it balances on idle, not in rounds)"))
		}
		opts = append(opts, optsched.WithSequentialRounds())
	}
	if backend == optsched.BackendSim {
		scenario.Horizon = *horizon
	} else {
		flag.Visit(func(f *flag.Flag) {
			switch {
			case f.Name == "horizon":
				fmt.Fprintf(os.Stderr, "schedsim: note: -horizon has no effect on the %s backend (it has no virtual clock)\n", backend.Name())
			case f.Name == "seed" && backend == optsched.BackendExecutor:
				fmt.Fprintln(os.Stderr, "schedsim: note: -seed has no effect on the executor backend (real concurrency is nondeterministic)")
			}
		})
	}
	var ring *optsched.TraceRing
	if *traceFile != "" {
		if backend != optsched.BackendSim {
			fatal(fmt.Errorf("schedsim: -trace requires -backend sim (the %s backend emits no trace events)", backend.Name()))
		}
		ring = optsched.NewTraceRing(65536)
		opts = append(opts, optsched.WithTrace(ring))
	}
	cluster, err := optsched.New(opts...)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := cluster.Run(ctx, scenario)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("policy    %s\nworkload  %s\nbackend   %s\ncores     %d\n",
		cluster.PolicyName(), scenario.Name, res.Backend, res.Cores)
	fmt.Printf("result    %v\n", res)
	if res.Faults > 0 {
		fmt.Printf("faults    %d events applied, %d tasks rescued, %d still orphaned\n",
			res.Faults, res.Rescued, res.Orphaned)
	}
	if st := res.Sim; st != nil {
		fmt.Printf("stats     %v\n", *st)
		fmt.Printf("latency   p50=%d p90=%d p99=%d max=%d\n",
			st.Latency.Quantile(0.5), st.Latency.Quantile(0.9),
			st.Latency.Quantile(0.99), st.Latency.Max())
		fmt.Printf("wasted    %.0f core-ticks (%.1f%% of capacity), %d violation episodes\n",
			st.WastedCoreTicks, st.WastedPct, st.ViolationEpisodes)
	}
	if metric != nil {
		name, value := metric()
		fmt.Printf("workload  %s = %d\n", name, value)
	}

	if ring != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := ring.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace     %d events -> %s\n", ring.Len(), *traceFile)
	}
}

// buildScenario returns the named scenario (with its calibrated machine
// width and groups baked in) and an optional workload-specific metric.
// The trap and barrier scenarios are simulator-native; forkjoin and
// bursty are portable batch scenarios that run on every backend.
func buildScenario(name string) (optsched.Scenario, func() (string, int64)) {
	switch name {
	case "db-trap":
		t := workload.NewDBTrap()
		return optsched.Scenario{
			Name: name, Cores: t.Cores(), Groups: t.Groups(), Workload: t,
		}, func() (string, int64) { return "requests", t.Server.Requests() }
	case "barrier-trap":
		t := workload.NewBarrierTrap(1700)
		return optsched.Scenario{
			Name: name, Cores: t.Cores(), Groups: t.Groups(), Workload: t,
		}, func() (string, int64) { return "generations", t.Barrier.Generations() }
	case "barrier":
		b := &workload.Barrier{Threads: 8, Work: 1700}
		return optsched.Scenario{Name: name, Cores: 8, Workload: b},
			func() (string, int64) { return "generations", b.Generations() }
	case "forkjoin":
		// 20 waves of 16 tasks forking on core 0, 40ms apart.
		sc := optsched.ForkJoinScenario(name, 20, 16, 2000, 40_000, 0)
		sc.Cores = 8
		return sc, nil
	case "bursty":
		// 30 bursts of 12 tasks landing on core 0, 25ms apart.
		sc := optsched.BurstyScenario(name, 30, 12, 1500, 25_000, 0)
		sc.Cores = 8
		return sc, nil
	}
	fatal(fmt.Errorf("schedsim: unknown workload %q", name))
	return optsched.Scenario{}, nil
}

// parseHotplug parses the -hotplug spec: comma-separated fail:CORE@AT
// and revive:CORE@AT elements. Schedule validity (event order, no
// double-fail, never the last online core) is checked by the scenario
// validation at Run time, against the resolved machine width.
func parseHotplug(spec string) ([]optsched.FaultEvent, error) {
	var events []optsched.FaultEvent
	for _, elem := range strings.Split(spec, ",") {
		elem = strings.TrimSpace(elem)
		verb, rest, ok := strings.Cut(elem, ":")
		if !ok || (verb != "fail" && verb != "revive") {
			return nil, fmt.Errorf("schedsim: bad -hotplug element %q (want fail:CORE@AT or revive:CORE@AT)", elem)
		}
		coreStr, atStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("schedsim: bad -hotplug element %q (missing @AT)", elem)
		}
		core, err := strconv.Atoi(coreStr)
		if err != nil || core < 0 {
			return nil, fmt.Errorf("schedsim: bad core in -hotplug element %q", elem)
		}
		at, err := strconv.ParseInt(atStr, 10, 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("schedsim: bad time in -hotplug element %q", elem)
		}
		events = append(events, optsched.FaultEvent{At: at, Core: core, Revive: verb == "revive"})
	}
	return events, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
