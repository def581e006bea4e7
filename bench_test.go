package optsched

// The benchmark harness: one benchmark per experiment of
// internal/experiment (the paper-shaped tables `go run ./cmd/schedbench`
// prints, regenerated under testing.B), plus
// micro-benchmarks of the protocol's building blocks. Run with
//
//	go test -bench=. -benchmem
//
// The per-iteration work of the E* benchmarks is one full experiment
// regeneration, so ns/op is the cost of reproducing that table.

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// --- Experiment regeneration benches (one per table/figure) ---

func BenchmarkE1Lemma1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.E1Lemma1(context.Background())
		if r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkE2SequentialWC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.E2SequentialConvergence(context.Background())
		if r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkE3Counterexample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.E3Counterexample(context.Background())
		if r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkE4Potential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.E4Potential(context.Background())
		if r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkE5RoundCost(b *testing.B) {
	// The real Figure-1 numbers: ns per balancing round by core count
	// and mode, measured by testing.B rather than the harness's rough
	// timer.
	for _, cores := range []int{4, 16, 64, 256} {
		loads := make([]int, cores)
		for i := range loads {
			loads[i] = i * 7 % 5
		}
		p := policy.NewDelta2()
		b.Run(benchName("sequential", cores), func(b *testing.B) {
			m := sched.MachineFromLoads(loads...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.SequentialRound(p, m)
			}
		})
		b.Run(benchName("concurrent", cores), func(b *testing.B) {
			m := sched.MachineFromLoads(loads...)
			order := sched.IdentityOrder(cores)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.ConcurrentRound(p, m, order)
			}
		})
	}
}

func benchName(mode string, cores int) string {
	return mode + "/cores=" + itoa(cores)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkE5DSLOverhead(b *testing.B) {
	// Compiled DSL policy vs native Go policy on the same round —
	// design constraint (iii): low overhead.
	src := `policy delta2_dsl {
	    load   = self.ready.size + self.current.size
	    filter = stealee.load - thief.load >= 2
	    steal  = 1
	}`
	dslPol, _, err := dsl.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	loads := []int{0, 3, 1, 4, 0, 2, 5, 1}
	b.Run("native", func(b *testing.B) {
		p := policy.NewDelta2()
		m := sched.MachineFromLoads(loads...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.SequentialRound(p, m)
		}
	})
	b.Run("dsl", func(b *testing.B) {
		m := sched.MachineFromLoads(loads...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.SequentialRound(dslPol, m)
		}
	})
}

func BenchmarkE6WastedCores(b *testing.B) {
	// One full motivation run per policy: db trap + barrier trap.
	for _, name := range []string{"weighted", "cfs-group-buggy", "null"} {
		b.Run("db/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trap := workload.NewDBTrap()
				p, _ := policy.New(name)
				s := sim.New(sim.Config{Cores: trap.Cores(), Policy: p,
					Groups: trap.Groups(), Seed: 11})
				trap.Setup(s)
				st := s.Run(1_500_000)
				if st.Rounds == 0 {
					b.Fatal("no rounds")
				}
			}
		})
		b.Run("barrier/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trap := workload.NewBarrierTrap(1700)
				p, _ := policy.New(name)
				s := sim.New(sim.Config{Cores: trap.Cores(), Policy: p,
					Groups: trap.Groups(), Seed: 11})
				trap.Setup(s)
				s.Run(400_000)
			}
		})
	}
}

func BenchmarkE7Hierarchical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.E7Hierarchical(context.Background())
		if r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkE8Concurrent(b *testing.B) {
	// The adversarial concurrent WC check: the costliest verification.
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 4, IncludeUnscheduled: true}
	factory := func() sched.Policy { return policy.NewDelta2() }
	for i := 0; i < b.N; i++ {
		res := verify.RunObligation(context.Background(), verify.ObWorkConservConc, factory, verify.Config{Universe: u})
		if !res.Passed {
			b.Fatal(res.Witness)
		}
	}
}

func BenchmarkE9Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.E9ConvergenceRate(context.Background())
		if r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkE10ServiceTail(b *testing.B) {
	// The open-loop 90%-load tail comparison: four policies through the
	// event loop, each with a half-horizon drain.
	for i := 0; i < b.N; i++ {
		r := experiment.E10ServiceTail(context.Background())
		if r.Table == nil {
			b.Fatal("no table")
		}
	}
}

// --- Protocol micro-benches ---

func BenchmarkSelect(b *testing.B) {
	// Step 1+2 in isolation: the lock-free path every core runs each
	// round.
	for _, cores := range []int{4, 64} {
		loads := make([]int, cores)
		for i := range loads {
			loads[i] = i % 4
		}
		m := sched.MachineFromLoads(loads...)
		p := policy.NewDelta2()
		b.Run("cores="+itoa(cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.Select(p, m, 0)
			}
		})
	}
}

func BenchmarkStealRevalidated(b *testing.B) {
	// Step 3 with re-validation, on a hit (steal succeeds) and a miss
	// (filter flipped).
	p := policy.NewDelta2()
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := sched.MachineFromLoads(0, 3)
			att := sched.Select(p, m, 0)
			b.StartTimer()
			sched.Steal(p, m, &att)
		}
	})
	b.Run("miss", func(b *testing.B) {
		m := sched.MachineFromLoads(1, 2)
		att := sched.Attempt{Thief: 0, Victim: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := att
			sched.Steal(p, m, &a) // gap 1: re-validation fails, no mutation
		}
	})
}

func BenchmarkPotentialFunctions(b *testing.B) {
	// The paper's pairwise-sum potential on a 64-core machine.
	loads := make([]int, 64)
	for i := range loads {
		loads[i] = i % 5
	}
	m := sched.MachineFromLoads(loads...)
	p := policy.NewDelta2()
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched.PairwiseImbalance(p, m)
		}
	})
}

func BenchmarkEngineThroughput(b *testing.B) {
	// The executor under skewed submission: end-to-end cost per task
	// including steals, by policy.
	for _, name := range []string{"delta2", "null"} {
		b.Run(name, func(b *testing.B) {
			pool := engine.NewPool(4, func() sched.Policy {
				p, _ := policy.New(name)
				return p
			}, engine.Options{})
			defer pool.Close()
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.SubmitTo(0, func() { sink.Add(1) })
			}
			pool.Wait()
			if sink.Load() != int64(b.N) {
				b.Fatalf("executed %d of %d", sink.Load(), b.N)
			}
		})
	}
}

func BenchmarkSimulatorEventRate(b *testing.B) {
	// Simulator throughput: events per second on the DB trap, the
	// busiest scenario.
	trap := workload.NewDBTrap()
	for i := 0; i < b.N; i++ {
		p, _ := policy.New("weighted")
		s := sim.New(sim.Config{Cores: trap.Cores(), Policy: p, Groups: trap.Groups(), Seed: 3})
		workload.NewDBTrap().Setup(s)
		s.Run(200_000)
	}
}

func BenchmarkVerifyFullReport(b *testing.B) {
	// The complete Leon-substitute pipeline on Listing 1's policy.
	u := statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true}
	for i := 0; i < b.N; i++ {
		rep, _ := verify.PolicyContext(context.Background(), "delta2", func() sched.Policy { return policy.NewDelta2() },
			verify.Config{Universe: u, Sequential: true})
		if !rep.Passed() {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkVerifyParallel is the sharded-driver headline: the full
// 8-obligation suite over a 4-core / 6-thread universe — a space the
// single-goroutine-per-obligation driver could not afford as a default —
// at increasing worker-pool sizes. "sequential" is Config.Sequential
// (every shard on the calling goroutine); the parallel levels share one
// pool across all obligations. Verdicts, counters and witnesses are
// asserted identical across levels; only ns/op should move. On a
// multi-core machine parallel=4 runs ≥ 2× faster than sequential; a
// single-core machine (GOMAXPROCS=1) times-shares the workers and shows
// parity instead.
func BenchmarkVerifyParallel(b *testing.B) {
	u := statespace.Universe{Cores: 4, MaxPerCore: 3, MaxTotal: 6, IncludeUnscheduled: true}
	factory := func() sched.Policy { return policy.NewDelta2() }
	var baseline *verify.Report
	run := func(b *testing.B, cfg verify.Config) {
		cfg.Universe = u
		for i := 0; i < b.N; i++ {
			rep, err := verify.PolicyContext(context.Background(), "delta2", factory, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Passed() {
				b.Fatalf("delta2 refuted:\n%s", rep)
			}
			if baseline == nil {
				baseline = rep
			} else if rep.String() != baseline.String() {
				b.Fatalf("report diverged across parallelism levels:\n%s\nvs baseline:\n%s", rep, baseline)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) {
		run(b, verify.Config{Sequential: true})
	})
	for _, par := range []int{1, 2, 4, 8} {
		b.Run("parallel="+itoa(par), func(b *testing.B) {
			run(b, verify.Config{Parallelism: par})
		})
	}
}

// BenchmarkVerifyFaults prices the fault dimension: the full obligation
// suite on the rescue-capable policy over the same universe healthy,
// then with one- and two-event fault scripts. Each MaxFaults step
// multiplies the state count by the number of valid scripts per
// machine, so this is the curve that says what `-max-faults` costs.
func BenchmarkVerifyFaults(b *testing.B) {
	factory := func() sched.Policy {
		p, err := policy.New("delta2-rescue")
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, maxFaults := range []int{0, 1, 2} {
		u := statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4,
			IncludeUnscheduled: true, MaxFaults: maxFaults}
		b.Run("maxFaults="+itoa(maxFaults), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := verify.PolicyContext(context.Background(), "delta2-rescue", factory,
					verify.Config{Universe: u})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Passed() {
					b.Fatalf("delta2-rescue refuted at maxFaults=%d:\n%s", maxFaults, rep)
				}
			}
		})
	}
}

func BenchmarkDSLParseCompile(b *testing.B) {
	src := `policy delta2 {
	    load   = self.ready.size + self.current.size
	    filter = stealee.load - thief.load >= 2
	    steal  = 1
	    choose = max_load
	}`
	for i := 0; i < b.N; i++ {
		if _, _, err := dsl.CompileSource(src); err != nil {
			b.Fatal(err)
		}
	}
}
