package optsched_test

import (
	"context"
	"fmt"
	"slices"

	optsched "repro"
	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/workload"
)

// must panics on err, which fails the example that called it.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// One session API, three execution substrates: the same skewed scenario
// runs on the bare model, the discrete-event simulator and the real
// work-stealing executor and comes back as one Result type. Then the
// model primitives show work conservation emerge round by round.
func Example_quickstart() {
	ctx := context.Background()

	// 12 tasks born on core 0 of a 4-core machine, through every backend
	// via the same Run call. The executor's steals depend on thread
	// timing, so only its completed count is printed.
	scenario := optsched.Scenario{Name: "quickstart", Cores: 4,
		Batches: []optsched.Batch{{Core: 0, Tasks: 12, Work: 500}}}
	for _, backend := range optsched.Backends() {
		c := must(optsched.New(optsched.WithPolicy("delta2"), optsched.WithBackend(backend)))
		res := must(c.Run(ctx, scenario))
		fmt.Printf("%-8s converged=%v", res.Backend, res.Converged)
		switch backend {
		case optsched.BackendModel:
			fmt.Printf(" steals=%d loads=%v\n", res.Steals, res.FinalLoads)
		case optsched.BackendSim:
			fmt.Printf(" steals=%d completed=%d/%d wasted=%.1f%%\n",
				res.Steals, res.Completed, res.Tasks, res.Sim.WastedPct)
		default:
			fmt.Printf(" completed=%d/%d\n", res.Completed, res.Tasks)
		}
	}

	// The §4.3 example machine, one sequential round at a time.
	fmt.Println("\nthe §4.3 machine, round by round:")
	m := sched.MachineFromLoads(0, 1, 2)
	p := policy.NewDelta2()
	fmt.Println("initial state:", m.Loads(), "work-conserved:", m.WorkConserved())
	for round := 1; !m.WorkConserved(); round++ {
		rr := sched.SequentialRound(p, m)
		fmt.Printf("round %d: moved %d task(s) -> %v, d = %d\n",
			round, rr.TasksMoved(), m.Loads(), sched.PairwiseImbalance(p, m))
	}

	// The optimistic concurrent mode: two idle cores race for one
	// stealable thread; one must fail re-validation (§4.3).
	m2 := sched.MachineFromLoads(0, 0, 2)
	fmt.Println("\nconcurrent round on", m2.Loads(), "(two thieves, one stealable thread):")
	rr := sched.ConcurrentRound(p, m2, []int{0, 1, 2})
	for _, att := range rr.Attempts {
		fmt.Printf("  core %d -> victim %d: %v\n", att.Thief, att.Victim, att.Reason)
	}
	fmt.Println("state:", m2.Loads(), "- the failed steal is explained by the concurrent success (§4.3)")

	// Output:
	// model    converged=true steals=3 loads=[9 1 1 1]
	// sim      converged=true steals=3 completed=12/12 wasted=0.3%
	// executor converged=true completed=12/12
	//
	// the §4.3 machine, round by round:
	// initial state: [0 1 2] work-conserved: false
	// round 1: moved 1 task(s) -> [1 1 1], d = 0
	//
	// concurrent round on [0 0 2] (two thieves, one stealable thread):
	//   core 0 -> victim 2: ok
	//   core 1 -> victim 2: revalidation-failed
	//   core 2 -> victim -1: no-candidate
	// state: [1 0 1] - the failed steal is explained by the concurrent success (§4.3)
}

// The real work-stealing backend: a goroutine pool whose balancer is the
// paper's three-step protocol (lock-free selection over published load
// counters, locked re-validated steals) spreads a skewed burst, while
// the null policy leaves every task on the worker it was submitted to.
// How many tasks delta2 steals depends on thread timing; that null
// steals none does not.
func Example_executor() {
	ctx := context.Background()
	burst := optsched.Scenario{Name: "skewed-burst", Cores: 4,
		Batches: []optsched.Batch{{Core: 0, Tasks: 100, Work: 100}}}
	for _, name := range []string{"delta2", "null"} {
		c := must(optsched.New(optsched.WithPolicy(name), optsched.WithBackend(optsched.BackendExecutor)))
		res := must(c.Run(ctx, burst))
		fmt.Printf("%-6s executed %d/%d tasks", name, res.Completed, res.Tasks)
		if name == "null" {
			fmt.Printf(", %d steals: every task ran on worker 0", res.Steals)
		}
		fmt.Println()
	}

	// Output:
	// delta2 executed 100/100 tasks
	// null   executed 100/100 tasks, 0 steals: every task ran on worker 0
}

// The §5 extensions: hierarchical (two-level) balancing passes the
// unchanged proof obligations, and NUMA-aware placement in the choice
// step measurably raises steal locality without touching the filter.
func Example_numa() {
	ctx := context.Background()

	// Hierarchical balancing over a grouped universe: same obligations,
	// no new proof work.
	hier := must(optsched.New(
		optsched.WithPolicy("hierarchical"),
		optsched.WithUniverse(optsched.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 4,
			IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}}),
	))
	fmt.Println(must(hier.Verify(ctx)))

	// Where steals land on the registry's default 2×4 NUMA machine, one
	// overloaded core per node. numa-aware is built over that topology;
	// the machine's cores carry its nodes.
	top := policy.DefaultTopology()
	six := sched.CoreSpec{Running: sched.DefaultWeight, Queued: slices.Repeat([]int64{sched.DefaultWeight}, 5)}
	fmt.Printf("\nsteal locality on %d cores, nodes %v (one overloaded core per node):\n", top.NCores, top.NodeOf)
	for _, name := range []string{"delta2", "numa-aware"} {
		p := must(optsched.New(optsched.WithPolicy(name))).NewPolicy()
		m := new(sched.Machine).Reset(top.NCores, top.NodeOf)
		m.SetFromSpec([]sched.CoreSpec{six, {}, {}, {}, six, {}, {}, {}})
		intra, total := 0, 0
		for round := 0; round < 6; round++ {
			for _, att := range sched.SequentialRound(p, m).Attempts {
				if att.Succeeded() {
					total++
					if m.Core(att.Thief).Node == m.Core(att.Victim).Node {
						intra++
					}
				}
			}
		}
		fmt.Printf("  %-18s %d/%d steals stayed on the victim's node -> %v\n",
			name, intra, total, m.Loads())
	}
	fmt.Println("\nBoth variants share Delta2's filter, so both inherit its proof:")
	fmt.Println("locality heuristics live in step 2 and cost zero proof effort (§5).")

	// Output:
	// policy hierarchical over universe{cores:4 maxPerCore:2 maxTotal:4 weights:[] unscheduled:true groups:[0 0 1 1] maxFaults:0}
	//   [PASS] lemma1                       states=257
	//   [PASS] steal-soundness              states=257
	//   [PASS] potential-decrease           states=257
	//   [PASS] failure-implies-success      states=257 schedules=6168
	//   [PASS] work-conservation-sequential states=257 worst-N=1
	//   [PASS] work-conservation-concurrent states=257 schedules=4608 worst-N=2
	//   [PASS] choice-independence          states=257 schedules=8160 worst-N=2
	//   [PASS] reactivity                   states=257 schedules=4608 worst-N=2
	//   [PASS] no-task-lost                 states=257
	//   [PASS] degraded-wasted-cores        states=257
	//   verdict: WORK-CONSERVING (all obligations hold over the bounded universe)
	//
	// steal locality on 8 cores, nodes [0 0 0 0 1 1 1 1] (one overloaded core per node):
	//   delta2             4/9 steals stayed on the victim's node -> [2 2 2 1 2 1 1 1]
	//   numa-aware         7/8 steals stayed on the victim's node -> [2 2 2 1 2 1 1 1]
	//
	// Both variants share Delta2's filter, so both inherit its proof:
	// locality heuristics live in step 2 and cost zero proof effort (§5).
}

// fancyChooser is an arbitrary placement heuristic: prefer even core IDs,
// then the most loaded. Heuristics like this never affect the proofs.
func fancyChooser(load func(*sched.Core) int64) sched.ChooseFunc {
	return func(_ *sched.Core, candidates []*sched.Core) *sched.Core {
		best := candidates[0]
		key := func(c *sched.Core) int64 {
			k := load(c)
			if c.ID%2 == 0 {
				k += 1 << 20
			}
			return k
		}
		for _, c := range candidates[1:] {
			if key(c) > key(best) {
				best = c
			}
		}
		return best
	}
}

// A policy written as plain Go is verified without registering it: its
// factory returns a fresh instance per call and must be safe for
// concurrent calls, since the obligations' shards run on a worker pool.
// Three are checked against the paper's proof obligations:
//
//   - Delta2 with a custom step-2 heuristic passes everything: the
//     choice step needs no proof;
//   - an overly timid filter (gap >= 3) fails Lemma 1's exists-direction:
//     an idle core cannot steal from a load-2 overloaded core;
//   - the §4.3 greedy filter is sequentially fine, but the checker finds
//     the concurrent ping-pong livelock.
func Example_verifyPolicy() {
	ctx := context.Background()
	threads := func(c *sched.Core) int64 { return int64(c.NThreads()) }
	cases := []struct {
		banner  string
		name    string
		factory verify.Factory
	}{
		{"== Delta2 with a custom placement heuristic ==\n(the paper's point: step 2 carries no proof obligations)",
			"delta2-fancy-choice", func() sched.Policy {
				p := policy.NewDelta2()
				p.Chooser = fancyChooser(p.Load)
				return p
			}},
		{"\n== an overly timid filter (gap >= 3) ==", "delta3-timid", func() sched.Policy {
			return &sched.FuncPolicy{
				PolicyName: "delta3-timid",
				LoadFn:     threads,
				FilterFn: func(thief, stealee *sched.Core) bool {
					return threads(stealee)-threads(thief) >= 3
				},
			}
		}},
		{"\n== the paper's greedy counterexample ==", "greedy-buggy",
			func() sched.Policy { return must(policy.New("greedy-buggy")) }},
	}
	for _, tc := range cases {
		fmt.Println(tc.banner)
		fmt.Println(must(verify.PolicyContext(ctx, tc.name, tc.factory, verify.Config{})))
	}

	// Output:
	// == Delta2 with a custom placement heuristic ==
	// (the paper's point: step 2 carries no proof obligations)
	// policy delta2-fancy-choice over universe{cores:3 maxPerCore:3 maxTotal:5 weights:[] unscheduled:true groups:[] maxFaults:0}
	//   [PASS] lemma1                       states=195
	//   [PASS] steal-soundness              states=195
	//   [PASS] potential-decrease           states=195
	//   [PASS] failure-implies-success      states=195 schedules=1170
	//   [PASS] work-conservation-sequential states=195 worst-N=1
	//   [PASS] work-conservation-concurrent states=195 schedules=576 worst-N=1
	//   [PASS] choice-independence          states=195 schedules=792 worst-N=1
	//   [PASS] reactivity                   states=195 schedules=576 worst-N=1
	//   [PASS] no-task-lost                 states=195
	//   [PASS] degraded-wasted-cores        states=195
	//   verdict: WORK-CONSERVING (all obligations hold over the bounded universe)
	//
	// == an overly timid filter (gap >= 3) ==
	// policy delta3-timid over universe{cores:3 maxPerCore:3 maxTotal:5 weights:[] unscheduled:true groups:[] maxFaults:0}
	//   [FAIL] lemma1                       states=63
	//     witness: state [0 0 2] (key 0:|0:|1024:1024): idle thief c0 has no candidate despite an overloaded core
	//   [PASS] steal-soundness              states=195
	//   [PASS] potential-decrease           states=195
	//   [PASS] failure-implies-success      states=195 schedules=1170
	//   [FAIL] work-conservation-sequential states=35 worst-N=1
	//     witness: state [0 0 2]: stuck at non-conserved [0 0 2] (no steal possible)
	//   [FAIL] work-conservation-concurrent states=35 schedules=120 worst-N=1
	//     witness: from [0 0 2]: adversarial livelock: state [0 0 2] recurs without conserving; schedule: [0 0 2] --steal-order [0 1 2]--> [0 0 2]
	//   [FAIL] choice-independence          states=35 schedules=120 worst-N=1
	//     witness: from [0 0 2]: adversarial livelock: state [0 0 2] recurs without conserving; schedule: [0 0 2] --victims [-1 -1 -1] steal-order [0 1 2]--> [0 0 2]
	//   [FAIL] reactivity                   states=35 schedules=120 worst-N=1
	//     witness: core 0 can starve from [0 0 2]: adversarial livelock: state [0 0 2] recurs without conserving; schedule: [0 0 2] --steal-order [0 1 2]--> [0 0 2]
	//   [PASS] no-task-lost                 states=195
	//   [PASS] degraded-wasted-cores        states=195
	//   verdict: NOT PROVEN: failed [lemma1 work-conservation-sequential work-conservation-concurrent choice-independence reactivity]
	//
	// == the paper's greedy counterexample ==
	// policy greedy-buggy over universe{cores:3 maxPerCore:3 maxTotal:5 weights:[] unscheduled:true groups:[] maxFaults:0}
	//   [PASS] lemma1                       states=195
	//   [PASS] steal-soundness              states=195
	//   [FAIL] potential-decrease           states=49
	//     witness: state [0 1 2]: steal c1<-c2 left potential 8 -> 8 (no strict decrease)
	//   [PASS] failure-implies-success      states=195 schedules=1170
	//   [PASS] work-conservation-sequential states=195 worst-N=1
	//   [FAIL] work-conservation-concurrent states=88 schedules=204 worst-N=1
	//     witness: from [0 1 2]: adversarial livelock: state [0 1 2] recurs without conserving; schedule: [0 1 2] --steal-order [1 0 2]--> [0 2 1] --steal-order [2 0 1]--> [0 1 2]
	//   [FAIL] choice-independence          states=72 schedules=192 worst-N=1
	//     witness: from [0 1 2]: adversarial livelock: state [0 1 2] recurs without conserving; schedule: [0 1 2] --victims [2 2 -1] steal-order [1 0 2]--> [0 2 1] --victims [1 -1 1] steal-order [2 0 1]--> [0 1 2]
	//   [FAIL] reactivity                   states=88 schedules=204 worst-N=1
	//     witness: core 0 can starve from [0 1 2]: adversarial livelock: state [0 1 2] recurs without conserving; schedule: [0 1 2] --steal-order [1 0 2]--> [0 2 1] --steal-order [2 0 1]--> [0 1 2]
	//   [PASS] no-task-lost                 states=195
	//   [PASS] degraded-wasted-cores        states=195
	//   verdict: NOT PROVEN: failed [potential-decrease work-conservation-concurrent choice-independence reactivity]
}

// The paper's §1 motivation (Lozi et al., "The Linux Scheduler: a Decade
// of Wasted Cores"): the CFS group-imbalance bug leaves a core idle while
// others are overloaded, costing ~25% database throughput and slowing
// barrier-synchronized scientific code many-fold. Each policy runs the
// canonical E6 traps on the simulator backend.
func Example_wastedCores() {
	ctx := context.Background()
	policies := []string{"weighted", "cfs-group-buggy", "null"}

	fmt.Println("=== database trap (4 cores, 2 groups, 1 hog, 5 workers) ===")
	var dbBase int64
	for _, name := range policies {
		trap := workload.NewDBTrap()
		res := runTrap(ctx, name, optsched.Scenario{
			Name: "db-trap", Cores: trap.Cores(), Groups: trap.Groups(),
			Workload: trap, Horizon: 1_500_000,
		})
		req := trap.Server.Requests()
		if name == "weighted" {
			dbBase = req
		}
		loss := 100 * float64(dbBase-req) / float64(dbBase)
		fmt.Printf("%-16s requests=%-6d loss=%5.1f%%  wasted=%5.1f%% of capacity  episodes=%d\n",
			name, req, loss, res.Sim.WastedPct, res.Sim.ViolationEpisodes)
	}
	fmt.Println("paper: 'up to 25% decrease in throughput for realistic database workloads'")

	fmt.Println("\n=== barrier trap (10 cores, 8 threads confined to 2 cores) ===")
	var barBase int64
	for _, name := range policies {
		trap := workload.NewBarrierTrap(1700)
		runTrap(ctx, name, optsched.Scenario{
			Name: "barrier-trap", Cores: trap.Cores(), Groups: trap.Groups(),
			Workload: trap, Horizon: 400_000,
		})
		gens := trap.Barrier.Generations()
		if name == "weighted" {
			barBase = gens
		}
		fmt.Printf("%-16s generations=%-5d slowdown=%.1fx\n", name, gens, float64(barBase)/float64(gens))
	}
	fmt.Println("paper: 'many-fold performance degradation in the case of scientific applications'")

	// Output:
	// === database trap (4 cores, 2 groups, 1 hog, 5 workers) ===
	// weighted         requests=1877   loss=  0.0%  wasted= 12.5% of capacity  episodes=751
	// cfs-group-buggy  requests=1503   loss= 19.9%  wasted= 25.0% of capacity  episodes=1
	// null             requests=1503   loss= 19.9%  wasted= 25.0% of capacity  episodes=1
	// paper: 'up to 25% decrease in throughput for realistic database workloads'
	//
	// === barrier trap (10 cores, 8 threads confined to 2 cores) ===
	// weighted         generations=232   slowdown=1.0x
	// cfs-group-buggy  generations=58    slowdown=4.0x
	// null             generations=29    slowdown=8.0x
	// paper: 'many-fold performance degradation in the case of scientific applications'
}

// runTrap executes one trap scenario under the named policy on the
// simulator backend.
func runTrap(ctx context.Context, name string, sc optsched.Scenario) *optsched.Result {
	c := must(optsched.New(
		optsched.WithPolicy(name),
		optsched.WithBackend(optsched.BackendSim),
		optsched.WithSeed(11),
	))
	return must(c.Run(ctx, sc))
}

// The paper's full DSL pipeline: parse a policy written in the
// scheduling DSL, verify it (the Leon-backend analogue), run it on the
// real executor (the kernel-backend analogue) and emit the generated Go
// code. One WithDSL cluster serves both the verification and the
// execution: "compile once, target every backend".
func Example_dslCompile() {
	ctx := context.Background()

	// Listing 1 in the DSL.
	const source = `
# Listing 1: the simple work-conserving load balancer.
policy delta2 {
    load   = self.ready.size + self.current.size
    filter = stealee.load() - self.load() >= 2
    steal  = 1
    choose = max_load
}
`
	// Front end: parse and type-check, printing the canonical form.
	ast := must(dsl.Parse(source))
	fmt.Printf("parsed policy %q:\n%s\n", ast.Name, ast)

	cluster := must(optsched.New(
		optsched.WithDSL(source),
		optsched.WithBackend(optsched.BackendExecutor),
	))

	// Backend 1 (verification): the proof obligations, in parallel.
	fmt.Println(must(cluster.Verify(ctx)))

	// Backend 2 (execution): the work-stealing executor runs the compiled
	// policy on a burst submitted to worker 0.
	res := must(cluster.Run(ctx, optsched.Scenario{Name: "dsl-burst", Cores: 4,
		Batches: []optsched.Batch{{Core: 0, Tasks: 100, Work: 50}}}))
	fmt.Printf("\nexecutor: %d/%d tasks done\n", res.Completed, res.Tasks)

	// Backend 3 (codegen): the Go source a kernel build would compile.
	fmt.Println("\ngenerated Go backend:")
	fmt.Println(dsl.Generate(ast, "policies"))

	// Output:
	// parsed policy "delta2":
	// policy delta2 {
	//     load   = (self.ready.size + self.current.size)
	//     filter = ((stealee.load - self.load) >= 2)
	//     steal  = 1
	//     choose = max_load
	// }
	//
	// policy delta2 over universe{cores:3 maxPerCore:3 maxTotal:5 weights:[] unscheduled:true groups:[] maxFaults:0}
	//   [PASS] lemma1                       states=195
	//   [PASS] steal-soundness              states=195
	//   [PASS] potential-decrease           states=195
	//   [PASS] failure-implies-success      states=195 schedules=1170
	//   [PASS] work-conservation-sequential states=195 worst-N=1
	//   [PASS] work-conservation-concurrent states=195 schedules=576 worst-N=1
	//   [PASS] choice-independence          states=195 schedules=792 worst-N=1
	//   [PASS] reactivity                   states=195 schedules=576 worst-N=1
	//   [PASS] no-task-lost                 states=195
	//   [PASS] degraded-wasted-cores        states=195
	//   verdict: WORK-CONSERVING (all obligations hold over the bounded universe)
	//
	// executor: 100/100 tasks done
	//
	// generated Go backend:
	// // Code generated by scheddsl from policy "delta2". DO NOT EDIT.
	//
	// package policies
	//
	// import "repro/internal/sched"
	//
	// // Delta2 is the DSL policy "delta2":
	// //
	// //	policy delta2 {
	// //	    load   = (self.ready.size + self.current.size)
	// //	    filter = ((stealee.load - self.load) >= 2)
	// //	    steal  = 1
	// //	    choose = max_load
	// //	}
	// type Delta2 struct{}
	//
	// // Name implements sched.Policy.
	// func (p *Delta2) Name() string { return "delta2" }
	//
	// // Load implements sched.Policy.
	// func (p *Delta2) Load(c *sched.Core) int64 {
	// 	return (int64(len(c.Queued())) + currentSize(c))
	// }
	//
	// // CanSteal implements sched.Policy (step-1 filter).
	// func (p *Delta2) CanSteal(thief, stealee *sched.Core) bool {
	// 	return ((p.Load(stealee) - p.Load(thief)) >= int64(2))
	// }
	//
	// // StealCount implements sched.Policy (step-3 sizing).
	// func (p *Delta2) StealCount(thief, stealee *sched.Core) int {
	// 	return int(int64(1))
	// }
	//
	// // Choose implements sched.Policy (step-2 heuristic: max_load).
	// func (p *Delta2) Choose(thief *sched.Core, candidates []*sched.Core) *sched.Core {
	// 	return sched.ChooseMaxLoad(p.Load)(thief, candidates)
	// }
}
