package optsched

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/verify"
)

// TestClusterRunAcrossBackends is the API's core promise: one fixed
// scenario runs through all three backends via the same Cluster.Run
// call and every backend returns a non-empty, internally consistent
// Result.
func TestClusterRunAcrossBackends(t *testing.T) {
	// A skewed burst: 24 tasks born on core 0 of a 4-core machine. Every
	// backend must spread the work (steals > 0 under delta2).
	scenario := SkewedScenario("skew", 24, 200)
	scenario.Cores = 4

	for _, backend := range Backends() {
		t.Run(backend.Name(), func(t *testing.T) {
			c, err := New(
				WithPolicy("delta2"),
				WithBackend(backend),
				WithSeed(7),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(context.Background(), scenario)
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend != backend.Name() || res.Policy != "delta2" || res.Scenario != "skew" {
				t.Errorf("result identity wrong: %+v", res)
			}
			if res.Cores != 4 || res.Tasks != 24 {
				t.Errorf("cores=%d tasks=%d, want 4/24", res.Cores, res.Tasks)
			}
			if !res.Converged {
				t.Errorf("backend %s did not converge: %v", backend.Name(), res)
			}
			if res.Steals <= 0 {
				t.Errorf("backend %s moved no tasks off the overloaded core: %v", backend.Name(), res)
			}
			if res.Wall <= 0 {
				t.Errorf("backend %s reports no wall time", backend.Name())
			}
			if res.String() == "" || !strings.Contains(res.String(), backend.Name()) {
				t.Errorf("String() = %q", res.String())
			}

			// Per-backend consistency.
			switch backend {
			case BackendModel:
				if res.FinalLoads == nil || len(res.FinalLoads) != 4 {
					t.Errorf("model: FinalLoads = %v", res.FinalLoads)
				}
				total := 0
				for _, l := range res.FinalLoads {
					total += l
				}
				if total != 24 {
					t.Errorf("model: threads not conserved: %v", res.FinalLoads)
				}
				if res.Rounds <= 0 {
					t.Error("model: no rounds recorded")
				}
			case BackendSim:
				if res.Completed != 24 {
					t.Errorf("sim: completed %d of 24", res.Completed)
				}
				if res.Sim == nil || res.Sim.Duration <= 0 {
					t.Errorf("sim: missing sim stats: %+v", res)
				}
			case BackendExecutor:
				if res.Completed != 24 {
					t.Errorf("executor: completed %d of 24", res.Completed)
				}
			}
		})
	}
}

// TestForkJoinAndBurstyScenariosOnTheSimulator runs the portable
// fork-join and bursty shapes on the simulator: waves forked on one core
// of a 4-core machine all complete, and the balancer has to steal to
// spread them.
func TestForkJoinAndBurstyScenariosOnTheSimulator(t *testing.T) {
	for _, tc := range []struct {
		sc    Scenario
		tasks int64
	}{
		{ForkJoinScenario("forkjoin", 3, 8, 2000, 50_000, 0), 24},
		{BurstyScenario("bursty", 5, 6, 1500, 30_000, 0), 30},
	} {
		sc := tc.sc
		sc.Cores = 4
		c, err := New(WithPolicy("delta2"), WithBackend(BackendSim), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != tc.tasks {
			t.Errorf("%s: completed %d of %d tasks", sc.Name, res.Completed, tc.tasks)
		}
		if res.Steals <= 0 {
			t.Errorf("%s: no steals spread the waves: %v", sc.Name, res)
		}
	}
}

// TestSimBatchOrderDoesNotMatter pins the simulator's arrival insertion
// path: batches listed out of At order must run exactly as the same
// batches sorted by At (ties kept in listed order) — the same Result,
// counters, simulator statistics and trace — because arrivals fire in
// time order, not in the order they were posted.
func TestSimBatchOrderDoesNotMatter(t *testing.T) {
	listed := Scenario{
		Name:    "unsorted",
		Cores:   4,
		Horizon: 200_000,
		Batches: []Batch{
			{At: 30_000, Core: 2, Tasks: 5, Work: 3_000},
			{At: 12_000, Core: 0, Tasks: 6, Work: 2_500, Weight: 2048},
			{At: 0, Core: 1, Tasks: 8, Work: 4_000},
			{At: 12_000, Core: 3, Tasks: 3, Work: 1_500},
			{At: 4_000, Core: 0, Tasks: 4},
			{At: 0, Core: 0, Tasks: 2, Work: 9_000},
		},
		Faults: []FaultEvent{{At: 12_000, Core: 1}, {At: 20_000, Core: 1, Revive: true}},
	}
	sorted := listed
	sorted.Batches = slices.Clone(listed.Batches)
	slices.SortStableFunc(sorted.Batches, func(a, b Batch) int { return cmp.Compare(a.At, b.At) })
	if slices.Equal(sorted.Batches, listed.Batches) {
		t.Fatal("fixture broken: the listed batches are already sorted")
	}

	run := func(sc Scenario) (*Result, []trace.Event) {
		t.Helper()
		ring := NewTraceRing(1 << 14)
		c, err := New(WithPolicy("delta2-rescue"), WithBackend(BackendSim), WithSeed(11), WithTrace(ring))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Len() == 1<<14 {
			t.Fatal("the trace ring overflowed; enlarge it")
		}
		res.Wall = 0
		return res, ring.Events()
	}
	want, wantTrace := run(sorted)
	got, gotTrace := run(listed)
	if got.Completed != int64(listed.TotalTasks()) || got.Steals == 0 || got.Faults != 2 {
		t.Fatalf("fixture broken: completed %d of %d, %d steals, %d faults", got.Completed, listed.TotalTasks(), got.Steals, got.Faults)
	}
	if got.Counters != want.Counters {
		t.Errorf("counters differ:\n listed %+v\n sorted %+v", got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Sim, want.Sim) {
		t.Errorf("simulator statistics differ:\n listed %+v\n sorted %+v", got.Sim, want.Sim)
	}
	got.Sim, want.Sim = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results differ:\n listed %+v\n sorted %+v", got, want)
	}
	if !slices.Equal(gotTrace, wantTrace) {
		t.Errorf("traces differ: %d events listed, %d sorted", len(gotTrace), len(wantTrace))
	}
}

// TestClusterRunWithFaultsAcrossBackends is the fault model's
// cross-backend promise, and the conformance check of the shared
// decision kernel: the same fault schedule round-trips through all
// three backends with every task accounted for, and where the model's
// and the simulator's clocks coincide — every event at At = 0 on the
// loaded core — their rescue accounting agrees exactly.
func TestClusterRunWithFaultsAcrossBackends(t *testing.T) {
	const tasks = 24
	fail, revive := FaultEvent{At: 0, Core: 0}, FaultEvent{At: 0, Core: 0, Revive: true}
	cases := []struct {
		name, policy string
		faults       []FaultEvent
		// shared: all events fire at At = 0 on the loaded core.
		shared bool
		// executor: false where the schedule strands work on the real
		// pool until ctx fires — no rescue rule and no revival.
		executor bool
		orphaned int64
	}{
		{"rescue/fail-unloaded", "delta2-rescue", []FaultEvent{{At: 0, Core: 1}}, false, true, 0},
		{"rescue/fail", "delta2-rescue", []FaultEvent{fail}, true, true, 0},
		{"rescue/fail-revive", "delta2-rescue", []FaultEvent{fail, revive}, true, true, 0},
		{"no-rescue/fail", "delta2", []FaultEvent{fail}, true, false, tasks},
		{"no-rescue/fail-revive", "delta2", []FaultEvent{fail, revive}, true, true, 0},
	}
	results := map[string]*Result{} // by "<backend>/<case>"
	for _, backend := range Backends() {
		t.Run(backend.Name(), func(t *testing.T) {
			for _, tc := range cases {
				if backend == BackendExecutor && !tc.executor {
					continue
				}
				t.Run(tc.name, func(t *testing.T) {
					scenario := SkewedScenario("skew-faults", tasks, 200)
					scenario.Cores = 4
					scenario.Faults = tc.faults
					c, err := New(
						WithPolicy(tc.policy),
						WithBackend(backend),
						WithSeed(7),
					)
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.Run(context.Background(), scenario)
					if err != nil {
						t.Fatal(err)
					}
					results[backend.Name()+"/"+tc.name] = res
					accounted := res.Completed + res.Orphaned
					if backend == BackendModel {
						accounted = 0
						for _, l := range res.FinalLoads {
							accounted += int64(l)
						}
					}
					if accounted != tasks {
						t.Errorf("%d of %d tasks accounted for: %v", accounted, tasks, res)
					}
					if res.Orphaned != tc.orphaned {
						t.Errorf("left %d tasks orphaned, want %d: %v", res.Orphaned, tc.orphaned, res)
					}
					if tc.orphaned == 0 && !res.Converged {
						t.Errorf("did not converge under the fault schedule: %v", res)
					}
					// The executor's fault clock is wall time, so an instant
					// drain can in principle outrun the kill; the virtual-time
					// backends must apply every event exactly.
					if backend != BackendExecutor && res.Faults != int64(len(tc.faults)) {
						t.Errorf("applied %d fault events, want %d", res.Faults, len(tc.faults))
					}
				})
			}
		})
	}
	for _, tc := range cases {
		model, sim := results["model/"+tc.name], results["sim/"+tc.name]
		if !tc.shared || model == nil || sim == nil {
			continue
		}
		if model.Rescued != sim.Rescued || model.Orphaned != sim.Orphaned {
			t.Errorf("%s: model rescued/orphaned %d/%d, sim %d/%d", tc.name,
				model.Rescued, model.Orphaned, sim.Rescued, sim.Orphaned)
		}
	}
}

// TestBackendsPlaceAlike runs schedsim's forkjoin shape with its spawn
// core failed at time 0, so every task is placed while its core is
// offline: on the model as an orphan of the fault, on the simulator as a
// spawn, on the executor as either. sched.Place decides all three, so a
// rescue rule leaves nothing orphaned anywhere, and a rescue-less policy
// strands every task on the model and the simulator alike.
func TestBackendsPlaceAlike(t *testing.T) {
	sc := ForkJoinScenario("forkjoin", 20, 16, 2000, 40_000, 0)
	sc.Cores = 8
	sc.Horizon = 1_500_000
	sc.Faults = []FaultEvent{{Core: 0, At: 0}}
	tasks := int64(sc.TotalTasks())
	for _, tc := range []struct {
		policy   string
		backends []Backend
		orphaned int64
	}{
		{"delta2-rescue", Backends(), 0},
		// The executor would wait for a revive that never comes.
		{"delta2", []Backend{BackendModel, BackendSim}, tasks},
	} {
		for _, backend := range tc.backends {
			t.Run(tc.policy+"/"+backend.Name(), func(t *testing.T) {
				c, err := New(WithPolicy(tc.policy), WithBackend(backend), WithSeed(1))
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				if res.Orphaned != tc.orphaned {
					t.Errorf("left %d of %d tasks orphaned, want %d: %v", res.Orphaned, tasks, tc.orphaned, res)
				}
				if tc.orphaned > 0 {
					return
				}
				if backend != BackendModel && res.Completed != tasks {
					t.Errorf("completed %d of %d tasks: %v", res.Completed, tasks, res)
				}
				// On the executor, worker 0 may run a task before the kill.
				if backend != BackendExecutor && res.Rescued != tasks {
					t.Errorf("rescued %d of %d tasks: %v", res.Rescued, tasks, res)
				}
			})
		}
	}
}

// TestClusterRunModelFaultSemantics pins the model backend's fault
// accounting: a rescue-less policy strands the failed core's tasks
// (visible as Orphaned), a scripted revival recovers them, and the
// rescue rule re-homes them immediately.
func TestClusterRunModelFaultSemantics(t *testing.T) {
	base := SkewedScenario("strand", 6, 100)
	base.Cores = 3

	run := func(t *testing.T, policy string, faults []FaultEvent) *Result {
		t.Helper()
		sc := base
		sc.Faults = faults
		c, err := New(WithPolicy(policy), WithBackend(BackendModel))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// No rescue, no revival: all six tasks stay stranded on core 0.
	res := run(t, "delta2", []FaultEvent{{At: 0, Core: 0}})
	if res.Orphaned != 6 || res.Rescued != 0 {
		t.Errorf("delta2 fail(0): orphaned=%d rescued=%d, want 6/0", res.Orphaned, res.Rescued)
	}

	// Scripted revival recovers the stranded tasks without a rescue rule.
	res = run(t, "delta2", []FaultEvent{{At: 0, Core: 0}, {At: 2, Core: 0, Revive: true}})
	if res.Orphaned != 0 {
		t.Errorf("delta2 fail+revive: %d tasks still orphaned", res.Orphaned)
	}
	if res.Faults != 2 {
		t.Errorf("delta2 fail+revive: %d fault events applied, want 2", res.Faults)
	}
	if !res.Converged {
		t.Errorf("delta2 fail+revive did not converge: %v", res)
	}

	// The rescue rule re-homes every orphan at fail time.
	res = run(t, "delta2-rescue", []FaultEvent{{At: 0, Core: 0}})
	if res.Orphaned != 0 || res.Rescued != 6 {
		t.Errorf("delta2-rescue fail(0): orphaned=%d rescued=%d, want 0/6", res.Orphaned, res.Rescued)
	}
	if !res.Converged {
		t.Errorf("delta2-rescue did not converge: %v", res)
	}
}

// TestClusterRunRejectsBadFaultSchedule checks schedule validation at
// Run time: out-of-order events, reviving an online core, and failing
// the last online core are all structural errors.
func TestClusterRunRejectsBadFaultSchedule(t *testing.T) {
	for name, faults := range map[string][]FaultEvent{
		"out of order":     {{At: 5, Core: 0}, {At: 1, Core: 0, Revive: true}},
		"revive online":    {{At: 0, Core: 1, Revive: true}},
		"double fail":      {{At: 0, Core: 1}, {At: 1, Core: 1}},
		"fail last online": {{At: 0, Core: 0}, {At: 0, Core: 1}},
		"negative time":    {{At: -1, Core: 0}},
		"negative core":    {{At: 0, Core: -2}},
	} {
		c, err := New(WithPolicy("delta2"), WithBackend(BackendModel))
		if err != nil {
			t.Fatal(err)
		}
		sc := SkewedScenario("bad", 4, 100)
		sc.Cores = 2
		sc.Faults = faults
		if _, err := c.Run(context.Background(), sc); err == nil {
			t.Errorf("%s: Run accepted invalid fault schedule %v", name, faults)
		}
	}
}

// TestClusterRunSharesScenarioAcrossTopologies checks that the cluster
// topology supplies width and groups when the scenario leaves them open.
func TestClusterTopologyDefaults(t *testing.T) {
	c, err := New(
		WithPolicy("numa-aware"),
		WithTopology(NUMATopology(2, 2)),
		WithBackend(BackendModel),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), Scenario{
		Name:    "numa-skew",
		Batches: []Batch{{Core: 0, Tasks: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 4 {
		t.Errorf("cores = %d, want the topology's 4", res.Cores)
	}
	if !res.Converged {
		t.Errorf("not converged: %v", res)
	}
}

// TestClusterTopologyCoverage: a topology-built policy must not run on
// (or be verified over) a machine wider than its topology — that would
// index past NodeOf inside the policy's distance metric.
func TestClusterTopologyCoverage(t *testing.T) {
	c, err := New(WithPolicy("numa-aware")) // default 2×4 topology
	if err != nil {
		t.Fatal(err)
	}
	sc := SkewedScenario("wide", 8, 100)
	sc.Cores = 16
	if _, err := c.Run(context.Background(), sc); err == nil {
		t.Error("16-core scenario accepted by a policy built over 8 cores")
	}
	wide, err := New(WithPolicy("numa-aware"),
		WithUniverse(Universe{Cores: 16, MaxPerCore: 1, MaxTotal: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.Verify(context.Background()); err == nil {
		t.Error("16-core universe accepted by a policy built over 8 cores")
	}
	// Within the topology's width both still work.
	sc.Cores = 8
	if _, err := c.Run(context.Background(), sc); err != nil {
		t.Errorf("8-core scenario rejected: %v", err)
	}
}

func TestClusterRunModelHonorsCancellation(t *testing.T) {
	c, err := New(WithPolicy("greedy-buggy"), WithBackend(BackendModel))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, ScenarioFromLoads("cancelled", 0, 1, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestClusterVerify(t *testing.T) {
	c, err := New(WithPolicy("delta2"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("delta2 verification failed:\n%s", rep)
	}
	if want := len(verify.AllObligations()); len(rep.Results) != want {
		t.Errorf("expected the full %d-obligation suite, got %d results", want, len(rep.Results))
	}

	bad, err := New(WithPolicy("greedy-buggy"))
	if err != nil {
		t.Fatal(err)
	}
	repBad, err := bad.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repBad.Passed() {
		t.Error("greedy-buggy verification should fail")
	}
}

// TestClusterVerifyParallelismDeterminism pins the WithParallelism
// contract: a refuted policy's report — witnesses included — is
// byte-identical at every worker-pool size.
func TestClusterVerifyParallelismDeterminism(t *testing.T) {
	reports := make([]string, 0, 3)
	for _, par := range []int{1, 2, 5} {
		c, err := New(WithPolicy("greedy-buggy"), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Verify(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed() {
			t.Fatal("greedy-buggy verification should fail")
		}
		reports = append(reports, rep.String())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Errorf("report at parallelism level %d diverged:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
	}
}

// TestClusterVerifyHonorsCancellation is the satellite requirement:
// Verify(ctx) aborts when the context dies and says so.
func TestClusterVerifyHonorsCancellation(t *testing.T) {
	c, err := New(WithPolicy("delta2"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rep, err := c.Verify(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Verify on cancelled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled Verify still took %v", elapsed)
	}
	if rep == nil {
		t.Fatal("cancelled Verify should still return the partial report")
	}
	if rep.Passed() {
		t.Error("a cancelled report must not claim the policy proved")
	}
	for _, r := range rep.Results {
		if r.Passed {
			continue
		}
		if !strings.Contains(r.Witness, "aborted") {
			t.Errorf("obligation %s failed without an aborted witness: %q", r.ID, r.Witness)
		}
	}
}

func TestClusterDSLPolicy(t *testing.T) {
	c, err := New(
		WithDSL(`policy quick { filter = stealee.load - thief.load >= 2 }`),
		WithBackend(BackendModel),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.PolicyName() != "quick" {
		t.Errorf("PolicyName = %q", c.PolicyName())
	}
	res, err := c.Run(context.Background(), ScenarioFromLoads("dsl", 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steals == 0 {
		t.Errorf("DSL policy did not balance: %v", res)
	}
}

func TestClusterOptionValidation(t *testing.T) {
	cases := map[string][]Option{
		"unknown policy":      {WithPolicy("nope")},
		"nil backend":         {WithBackend(nil)},
		"nil topology":        {WithTopology(nil)},
		"broken DSL":          {WithDSL("policy x {}")},
		"conflicting sources": {WithPolicy("delta2"), WithDSL(`policy y { filter = stealee.load - thief.load >= 2 }`)},
		"policy + factory": {WithPolicyFactory("mine", func() Policy { return NewDelta2() }),
			WithPolicy("delta2")},
		"nil factory":        {WithPolicyFactory("x", nil)},
		"unknown obligation": {WithObligations("lemma1typo")},
		"zero parallelism":   {WithParallelism(0)},
		"neg parallelism":    {WithParallelism(-2)},
		"zero-core universe": {WithUniverse(Universe{Groups: []int{0, 1}})},
		"empty service URL":  {WithVerifyService("")},
		"service + factory": {WithVerifyService("http://127.0.0.1:1"),
			WithPolicyFactory("mine", func() Policy { return NewDelta2() })},
	}
	for name, opts := range cases {
		if _, err := New(opts...); err == nil {
			t.Errorf("%s: New accepted invalid options", name)
		}
	}
}

func TestClusterRunValidation(t *testing.T) {
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Run(ctx, Scenario{}); err == nil {
		t.Error("nameless scenario accepted")
	}
	// An all-idle machine is legitimate: trivially converged, no rounds.
	if res, err := c.Run(ctx, ScenarioFromLoads("idle", 0, 0, 0)); err != nil || !res.Converged || res.Rounds != 0 {
		t.Errorf("idle machine: res=%v err=%v", res, err)
	}
	if _, err := c.Run(ctx, Scenario{Name: "x", Batches: []Batch{{Core: 0, Tasks: 0}}}); err == nil {
		t.Error("zero-task batch accepted")
	}
	if _, err := c.Run(ctx, Scenario{Name: "x", Cores: 2, Groups: []int{0},
		Batches: []Batch{{Core: 0, Tasks: 1}}}); err == nil {
		t.Error("mismatched groups accepted")
	}
	// Sim-native workloads are rejected off-simulator.
	wl := Scenario{Name: "wl", Workload: dummyWorkload{}}
	if _, err := c.Run(ctx, wl); err == nil {
		t.Error("model backend accepted a sim-native workload")
	}
}

type dummyWorkload struct{}

func (dummyWorkload) Name() string       { return "dummy" }
func (dummyWorkload) Setup(s *Simulator) {}

// TestBackendByName pins the CLI-facing backend names.
func TestBackendByName(t *testing.T) {
	for _, want := range []string{"model", "sim", "executor"} {
		b, err := BackendByName(want)
		if err != nil || b.Name() != want {
			t.Errorf("BackendByName(%q) = %v, %v", want, b, err)
		}
	}
	if _, err := BackendByName("kernel"); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestClusterVerifyServiceRoundTrip delegates Verify to an in-process
// schedverifyd and pins the remote path's contract: the report is
// byte-identical to local verification, and a second Verify is served
// entirely from the daemon's memo.
func TestClusterVerifyServiceRoundTrip(t *testing.T) {
	svc := newService(t, service.Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	obligations := []ObligationID{"lemma1", "steal-soundness"}
	local, err := New(WithPolicy("delta2"), WithObligations(obligations...))
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := local.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := ReportToJSON(localRep)
	if err != nil {
		t.Fatal(err)
	}

	remote, err := New(WithPolicy("delta2"), WithObligations(obligations...),
		WithVerifyService(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, err := remote.Verify(context.Background())
		if err != nil {
			t.Fatalf("remote Verify %d: %v", i, err)
		}
		remoteJSON, err := ReportToJSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(localJSON, remoteJSON) {
			t.Fatalf("remote report %d differs from local:\nlocal:\n%s\nremote:\n%s", i, localJSON, remoteJSON)
		}
	}
	if st := svc.Stats(); st.ServedFromCache != 1 {
		t.Errorf("second remote Verify was not a pure cache hit: %+v", st)
	}
}

// TestClusterVerifyServiceFallback pins the resilience contract of
// WithVerifyService: when the daemon is unreachable and the circuit
// breaker opens, Verify falls back to local in-process verification and
// still returns a valid report.
func TestClusterVerifyServiceFallback(t *testing.T) {
	c, err := New(WithPolicy("delta2"), WithObligations("lemma1", "steal-soundness"),
		WithVerifyService("http://127.0.0.1:1")) // nothing listens here
	if err != nil {
		t.Fatal(err)
	}
	vc := c.VerifyServiceClient()
	if vc == nil {
		t.Fatal("WithVerifyService did not install a client")
	}
	vc.BreakerThreshold = 2
	vc.RetryBase = time.Millisecond
	vc.MaxPollInterval = 4 * time.Millisecond
	vc.BreakerCooldown = time.Hour

	rep, err := c.Verify(context.Background())
	if err != nil {
		t.Fatalf("Verify with a dead daemon did not fall back locally: %v", err)
	}
	if !rep.Passed() || len(rep.Results) != 2 {
		t.Errorf("fallback report invalid:\n%s", rep)
	}
	// The breaker is open now: subsequent Verifies fail fast into the
	// local path without waiting out retry backoffs.
	start := time.Now()
	if _, err := c.Verify(context.Background()); err != nil {
		t.Fatalf("second fallback Verify: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("open-breaker fallback took %v, want fail-fast", took)
	}
}

// TestClusterVerifyServiceStatus pins the observability contract that
// rides on the fallback path: VerifyServiceStatus exposes the circuit
// breaker's state and counts the Verify calls diverted to local
// verification, so operators can see a degraded daemon instead of
// inferring it from latency.
func TestClusterVerifyServiceStatus(t *testing.T) {
	c, err := New(WithPolicy("delta2"), WithObligations("lemma1"),
		WithVerifyService("http://127.0.0.1:1")) // nothing listens here
	if err != nil {
		t.Fatal(err)
	}
	st, ok := c.VerifyServiceStatus()
	if !ok {
		t.Fatal("VerifyServiceStatus reported no delegation despite WithVerifyService")
	}
	if st.Breaker.State != "closed" || st.Breaker.ConsecutiveFailures != 0 || st.LocalFallbacks != 0 {
		t.Errorf("pristine status = %+v, want closed/0/0", st)
	}

	vc := c.VerifyServiceClient()
	vc.BreakerThreshold = 2
	vc.RetryBase = time.Millisecond
	vc.MaxPollInterval = 4 * time.Millisecond
	vc.BreakerCooldown = time.Hour

	for i := 1; i <= 2; i++ {
		if _, err := c.Verify(context.Background()); err != nil {
			t.Fatalf("fallback Verify %d: %v", i, err)
		}
		st, _ = c.VerifyServiceStatus()
		if st.LocalFallbacks != int64(i) {
			t.Errorf("after Verify %d: LocalFallbacks = %d, want %d", i, st.LocalFallbacks, i)
		}
	}
	if st.Breaker.State != "open" {
		t.Errorf("breaker state %q after repeated failures, want open", st.Breaker.State)
	}
	if st.Breaker.ConsecutiveFailures < 2 {
		t.Errorf("ConsecutiveFailures = %d, want >= threshold 2", st.Breaker.ConsecutiveFailures)
	}

	// Once the cooldown elapses the breaker half-opens: the next Verify
	// would probe the daemon again.
	vc.mu.Lock()
	vc.openUntil = time.Now().Add(-time.Millisecond)
	vc.mu.Unlock()
	st, _ = c.VerifyServiceStatus()
	if st.Breaker.State != "half-open" {
		t.Errorf("breaker state %q after cooldown, want half-open", st.Breaker.State)
	}

	// Without WithVerifyService there is no delegation to report on.
	plain, err := New(WithPolicy("delta2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.VerifyServiceStatus(); ok {
		t.Error("VerifyServiceStatus reported a delegation on a local-only cluster")
	}
}
