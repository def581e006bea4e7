package optsched

// The layer micro-benchmarks CI's bench job runs beside bench/run.sh:
// the simulator (SimulatorEventRate, E10ServiceTail), the executor's
// lock-free path (Select, EngineThroughput) and the verifier (a full
// report, the DSL front end). The end-to-end workloads and every other
// per-layer number live in bench/. Run with
//
//	go test -run '^$' -bench . -benchmem
//
// E10ServiceTail's per-iteration work is one full regeneration of
// experiment E10's table, so its ns/op is the cost of reproducing it.

import (
	"context"
	"strconv"
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
		b.Run("cores="+strconv.Itoa(cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.Select(p, m, 0)
			}
		})
	}
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
