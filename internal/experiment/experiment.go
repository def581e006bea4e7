// Package experiment regenerates every paper-shaped experiment, E1–E10,
// that `go run ./cmd/schedbench` prints: each E* function reproduces one of the paper's artifacts (listings,
// figure, counterexample, motivation claims) and returns a formatted
// table plus notes. cmd/schedbench prints them all; the root bench suite
// wraps each in a testing.B benchmark.
package experiment

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/dsl"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/topology"
	"repro/internal/verify"
	"repro/internal/workload"
)

// numaTopology is the 2-node × 4-core machine used by the locality
// sample.
func numaTopology() *topology.Topology { return topology.NUMA(2, 4) }

// Result is one regenerated experiment.
type Result struct {
	// ID is the experiment identifier (E1..E8).
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Table holds the regenerated rows.
	Table *metrics.Table
	// Notes carry the shape findings (who wins, by how much).
	Notes []string
}

// String renders the experiment in the report format.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// defaultUniverse is the bounded space shared by the verification
// experiments (kept small enough that the full suite runs in seconds).
func defaultUniverse() statespace.Universe {
	return statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 4, IncludeUnscheduled: true}
}

func verdict(passed bool) string {
	if passed {
		return "PROVED (bounded)"
	}
	return "REFUTED"
}

// resultVerdict renders one obligation result, distinguishing a
// cancelled (partial) check from a genuine refutation.
func resultVerdict(res verify.Result) string {
	if res.Aborted {
		return "ABORTED (partial)"
	}
	return verdict(res.Passed)
}

// factoryOf returns the registered policy's factory; the policy names
// here are literals, so an unknown one is a bug and panics.
func factoryOf(name string) verify.Factory {
	return func() sched.Policy {
		p, err := policy.New(name)
		if err != nil {
			panic(err)
		}
		return p
	}
}

// check runs one obligation for a registered policy over u.
func check(ctx context.Context, id verify.ObligationID, name string, u statespace.Universe) verify.Result {
	return verify.RunObligation(ctx, id, factoryOf(name), verify.Config{Universe: u})
}

// E1Lemma1 reproduces Listing 2: the Lemma 1 check for each policy over
// the bounded universe. The paper proves it for the simple and weighted
// balancers; the CFS group-average model must fail it (that failure *is*
// the wasted-cores bug).
func E1Lemma1(ctx context.Context) Result {
	t := metrics.NewTable("policy", "universe", "states", "lemma1", "witness")
	type row struct {
		name string
		u    statespace.Universe
	}
	rows := []row{
		{"delta2", defaultUniverse()},
		{"weighted", statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4,
			Weights: []int64{1, 3}, IncludeUnscheduled: true}},
		{"greedy-buggy", defaultUniverse()},
		{"hierarchical", statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 4,
			IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}}},
		{"cfs-group-buggy", statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 5,
			Weights: []int64{1, 8}, Groups: []int{0, 0, 1, 1}}},
	}
	var failedCFS bool
	for _, r := range rows {
		res := check(ctx, verify.ObLemma1, r.name, r.u)
		witness := res.Witness
		if len(witness) > 60 {
			witness = witness[:57] + "..."
		}
		t.AddRow(r.name, universeLabel(r.u), fmt.Sprint(res.StatesChecked), resultVerdict(res), witness)
		if r.name == "cfs-group-buggy" && !res.Passed && !res.Aborted {
			failedCFS = true
		}
	}
	notes := []string{"paper: Leon proves Lemma 1 automatically for the simple and weighted balancers"}
	if failedCFS {
		notes = append(notes, "the CFS group-average model fails the exists-direction: the group-imbalance bug, caught at the cheapest obligation")
	}
	return Result{ID: "E1", Title: "Lemma 1 (Listing 2) over the bounded universe", Table: t, Notes: notes}
}

func universeLabel(u statespace.Universe) string {
	label := fmt.Sprintf("%dc/%dmax", u.Cores, u.MaxPerCore)
	if len(u.Weights) > 0 {
		label += "/w"
	}
	if u.Groups != nil {
		label += "/grp"
	}
	return label
}

// E2SequentialConvergence reproduces §4.2: sequential rounds are
// work-conserving, with the worst-case N measured per machine size.
func E2SequentialConvergence(ctx context.Context) Result {
	t := metrics.NewTable("policy", "cores", "maxPerCore", "states", "verdict", "worst-N")
	shapes := []struct{ cores, maxPer, maxTotal int }{
		{2, 4, 0}, {3, 3, 5}, {4, 2, 6},
	}
	for _, name := range []string{"delta2", "greedy-buggy", "weighted"} {
		for _, s := range shapes {
			u := statespace.Universe{Cores: s.cores, MaxPerCore: s.maxPer,
				MaxTotal: s.maxTotal, IncludeUnscheduled: true}
			res := check(ctx, verify.ObWorkConservSeq, name, u)
			t.AddRow(name, fmt.Sprint(s.cores), fmt.Sprint(s.maxPer),
				fmt.Sprint(res.StatesChecked), resultVerdict(res), fmt.Sprint(res.Bound))
		}
	}
	return Result{
		ID: "E2", Title: "Sequential work conservation (§4.2)", Table: t,
		Notes: []string{
			"every policy converges without concurrency — even the greedy filter (the paper's point: only concurrency breaks it)",
			"worst-N = 1 in the sequential setting: an idle core's steal cannot fail in isolation, so one round always clears every idle core; N > 1 appears only under concurrency (E3, E8)",
		},
	}
}

// E3Counterexample reproduces §4.3's ping-pong: the model checker finds
// the livelock for the greedy filter and proves its absence for Delta2.
func E3Counterexample(ctx context.Context) Result {
	t := metrics.NewTable("policy", "states", "schedules", "verdict", "worst-N")
	u := statespace.Universe{Cores: 3, MaxPerCore: 3, MaxTotal: 3}
	var witness string
	for _, name := range []string{"delta2", "greedy-buggy"} {
		res := check(ctx, verify.ObWorkConservConc, name, u)
		t.AddRow(name, fmt.Sprint(res.StatesChecked), fmt.Sprint(res.SchedulesChecked),
			resultVerdict(res), fmt.Sprint(res.Bound))
		if !res.Passed && !res.Aborted && witness == "" {
			witness = res.Witness
		}
	}
	notes := []string{"paper §4.3: cores 0/1/2 with loads 0/1/2; the spare thread ping-pongs between the non-idle cores"}
	if witness != "" {
		notes = append(notes, "found automatically: "+witness)
	}
	return Result{ID: "E3", Title: "Concurrent counterexample (§4.3 ping-pong)", Table: t, Notes: notes}
}

// E4Potential reproduces the §4.3 bounded-successes argument: the
// pairwise imbalance strictly decreases per successful steal for sound
// policies, refuted with a witness for the greedy filter; the potential
// bound is compared against observed steal counts.
func E4Potential(ctx context.Context) Result {
	t := metrics.NewTable("policy", "states", "verdict", "example machine", "d0", "bound", "observed steals")
	for _, name := range []string{"delta2", "weighted", "greedy-buggy", "delta1-aggressive"} {
		res := check(ctx, verify.ObPotentialDecrease, name, defaultUniverse())
		// Observed steals to fixpoint on a canonical machine.
		p := factoryOf(name)()
		m := sched.MachineFromLoads(0, 6, 2, 0)
		d0 := sched.PairwiseImbalance(p, m)
		bound := sched.PotentialBound(p, m, 2)
		steals := 0
		for i := 0; i < 64; i++ {
			rr := sched.SequentialRound(p, m)
			steals += rr.Successes()
			if rr.TasksMoved() == 0 {
				break
			}
		}
		t.AddRow(name, fmt.Sprint(res.StatesChecked), resultVerdict(res),
			"[0 6 2 0]", fmt.Sprint(d0), fmt.Sprint(bound), fmt.Sprint(steals))
	}
	return Result{
		ID: "E4", Title: "Potential function d = ΣΣ|loadᵢ−loadⱼ| (§4.3)", Table: t,
		Notes: []string{
			"observed steals ≤ d0/minDrop for every policy whose steals strictly decrease d",
			"greedy and delta1 violate strict decrease — their steal counts are not bounded by the potential",
		},
	}
}

// E5RoundCost reproduces the Figure 1 overhead story: the cost of a
// balancing round by core count, the concurrent (select-all-then-steal)
// mode's premium, and the compiled DSL policy's overhead versus the native one —
// design constraint (iii), "incurring low overhead".
func E5RoundCost(ctx context.Context) Result {
	t := metrics.NewTable("cores", "sequential ns/round", "concurrent ns/round", "dsl ns/round", "dsl overhead")
	src := `policy delta2_dsl {
    load   = self.ready.size + self.current.size
    filter = stealee.load - thief.load >= 2
    steal  = 1
    choose = max_load
}`
	dslPolicy, _, err := dsl.CompileSource(src)
	if err != nil {
		panic(err)
	}
	atScale := "not measured (cancelled)" // the widest machine's overhead
	for _, cores := range []int{4, 16, 64} {
		if ctx.Err() != nil {
			t.AddRow("(cancelled)", "-", "-", "-", "-")
			break
		}
		loads := make([]int, cores)
		for i := range loads {
			loads[i] = (i * 7 % 5)
		}
		native := policy.NewDelta2()
		seq := timeRound(func(m *sched.Machine) { sched.SequentialRound(native, m) }, loads)
		conc := timeRound(func(m *sched.Machine) {
			sched.ConcurrentRound(native, m, sched.IdentityOrder(cores))
		}, loads)
		dslT := timeRound(func(m *sched.Machine) { sched.SequentialRound(dslPolicy, m) }, loads)
		overhead := float64(dslT) / float64(seq)
		t.AddRow(fmt.Sprint(cores), fmt.Sprint(seq), fmt.Sprint(conc),
			fmt.Sprint(dslT), fmt.Sprintf("%.2fx", overhead))
		atScale = fmt.Sprintf("%.2fx native Go at %d cores", overhead, cores)
	}
	return Result{
		ID: "E5", Title: "Balancing-round cost and DSL overhead (Figure 1, constraint iii)", Table: t,
		Notes: []string{
			"concurrent rounds pay for re-validating every steal and recording each attempt's candidates; selection runs on the live machine (nothing mutates it before the last core has selected), so there is no snapshot to pay for",
			"the DSL policy, its clauses compiled once to closures, costs " + atScale + "; the generated-code backend (scheddsl -gen) emits the native code itself",
		},
	}
}

// timeRound measures ns per round over fresh machines.
func timeRound(round func(*sched.Machine), loads []int) int64 {
	const iters = 200
	machines := make([]*sched.Machine, iters)
	for i := range machines {
		machines[i] = sched.MachineFromLoads(loads...)
	}
	start := time.Now()
	for _, m := range machines {
		round(m)
	}
	return time.Since(start).Nanoseconds() / iters
}

// E6WastedCores reproduces the §1 motivation (Lozi et al.): the database
// trap (up to ~25% throughput loss) and the barrier trap (many-fold
// slowdown) under the buggy group-average policy versus work-conserving
// policies.
func E6WastedCores(ctx context.Context) Result {
	t := metrics.NewTable("policy", "db req/1.5Mticks", "db loss", "barrier gens/400k", "slowdown", "wasted%")
	const horizon = 1_500_000
	dbBase, barBase := int64(0), int64(0)
	policies := []string{"weighted", "hierarchical", "delta2", "cfs-group-buggy", "null"}
	for _, name := range policies {
		if ctx.Err() != nil {
			t.AddRow("(cancelled)", "-", "-", "-", "-", "-")
			break
		}
		dbTrap := workload.NewDBTrap()
		s := sim.New(sim.Config{Cores: dbTrap.Cores(), Policy: factoryOf(name)(),
			Groups: dbTrap.Groups(), Seed: 11})
		dbTrap.Setup(s)
		st, err := s.RunContext(ctx, horizon)
		if err != nil {
			t.AddRow("(cancelled)", "-", "-", "-", "-", "-")
			break
		}
		req := dbTrap.Server.Requests()

		barTrap := workload.NewBarrierTrap(1700)
		s2 := sim.New(sim.Config{Cores: barTrap.Cores(), Policy: factoryOf(name)(),
			Groups: barTrap.Groups(), Seed: 11})
		barTrap.Setup(s2)
		if _, err := s2.RunContext(ctx, 400_000); err != nil {
			t.AddRow("(cancelled)", "-", "-", "-", "-", "-")
			break
		}
		gens := barTrap.Barrier.Generations()

		if name == "weighted" {
			dbBase, barBase = req, gens
		}
		loss := "-"
		if dbBase > 0 && name != "weighted" {
			loss = fmt.Sprintf("%.1f%%", 100*float64(dbBase-req)/float64(dbBase))
		}
		slowdown := "-"
		if barBase > 0 && gens > 0 && name != "weighted" {
			slowdown = fmt.Sprintf("%.1fx", float64(barBase)/float64(gens))
		}
		t.AddRow(name, fmt.Sprint(req), loss, fmt.Sprint(gens), slowdown,
			fmt.Sprintf("%.1f", st.WastedPct))
	}
	return Result{
		ID: "E6", Title: "Wasted cores: the §1 motivation numbers (Lozi et al.)", Table: t,
		Notes: []string{
			"paper: 'up to 25% decrease in throughput for realistic database workloads' — the cfs-group-buggy row",
			"paper: 'many-fold performance degradation in the case of scientific applications' — the barrier slowdown column",
		},
	}
}

// E7Hierarchical reproduces the §5 extension: two-level balancing passes
// the identical obligations (no new proof work), and NUMA-aware choice
// changes steal locality without touching the filter.
func E7Hierarchical(ctx context.Context) Result {
	t := metrics.NewTable("check", "policy", "result", "detail")
	u := statespace.Universe{Cores: 4, MaxPerCore: 2, MaxTotal: 4,
		IncludeUnscheduled: true, Groups: []int{0, 0, 1, 1}}
	for _, ob := range []verify.ObligationID{verify.ObLemma1, verify.ObStealSoundness,
		verify.ObPotentialDecrease, verify.ObWorkConservSeq, verify.ObChoiceIndependence} {
		res := check(ctx, ob, "hierarchical", u)
		detail := fmt.Sprintf("states=%d", res.StatesChecked)
		if res.SchedulesChecked > 0 {
			detail += fmt.Sprintf(" schedules=%d", res.SchedulesChecked)
		}
		t.AddRow(string(ob), "hierarchical", resultVerdict(res), detail)
	}
	// Locality: fraction of intra-group steals, NUMA-aware vs plain.
	for _, variant := range []string{"delta2", "numa-aware"} {
		intra, total := localitySample(variant)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(intra) / float64(total)
		}
		t.AddRow("steal locality", variant, fmt.Sprintf("%.0f%% intra-group", pct),
			fmt.Sprintf("%d/%d steals", intra, total))
	}
	return Result{
		ID: "E7", Title: "Hierarchical balancing and NUMA-aware choice (§5)", Table: t,
		Notes: []string{
			"the hierarchical filter is a restriction of Delta2 plus an idle-escape clause, so every obligation transfers",
			"the NUMA-aware step-2 heuristic raises intra-group steal locality at zero proof cost — the paper's central claim about the choice step",
		},
	}
}

// localitySample runs a skewed workload on a 2x4 NUMA machine and counts
// intra-group steals.
func localitySample(variant string) (intra, total int) {
	top := numaTopology()
	var p sched.Policy
	if variant == "numa-aware" {
		p = policy.NewNUMAAware(top)
	} else {
		p = policy.NewDelta2()
	}
	// Overload one core per node; let everyone balance for some rounds.
	six := sched.CoreSpec{Running: sched.DefaultWeight, Queued: slices.Repeat([]int64{sched.DefaultWeight}, 5)}
	m := new(sched.Machine).Reset(top.NCores, top.NodeOf)
	for trial := 0; trial < 20; trial++ {
		m.SetFromSpec([]sched.CoreSpec{six, {}, {}, {}, six, {}, {}, {}}) // the layout stays
		for round := 0; round < 6; round++ {
			rr := sched.SequentialRound(p, m)
			for _, att := range rr.Attempts {
				if att.Succeeded() {
					total++
					if m.Core(att.Thief).Group == m.Core(att.Victim).Group {
						intra++
					}
				}
			}
		}
	}
	return intra, total
}

// E8Concurrent reproduces the §3.1/§4.3 optimistic-concurrency story:
// failure⇒success holds over every adversarial schedule, the
// re-validation ablation breaks soundness, and the real executor shows
// the protocol live (steals succeed, optimistic failures happen, nothing
// corrupts).
func E8Concurrent(ctx context.Context) Result {
	t := metrics.NewTable("check", "policy", "result", "detail")
	u := defaultUniverse()
	res := check(ctx, verify.ObFailureImpliesSucc, "delta2", u)
	t.AddRow("failure implies success", "delta2", resultVerdict(res),
		fmt.Sprintf("%d schedules", res.SchedulesChecked))
	resC := check(ctx, verify.ObWorkConservConc, "delta2", u)
	t.AddRow("concurrent WC", "delta2", resultVerdict(resC),
		fmt.Sprintf("worst-N=%d over %d schedules", resC.Bound, resC.SchedulesChecked))
	abl := verify.CheckRevalidationAblation(ctx, factoryOf("delta2"),
		statespace.Universe{Cores: 3, MaxPerCore: 2, MaxTotal: 4, IncludeUnscheduled: true})
	ablResult := fmt.Sprintf("%d soundness violations", abl.SoundnessViolations)
	if abl.Aborted {
		ablResult = "ABORTED (partial): " + ablResult
	}
	t.AddRow("ablation: no re-validation", "delta2", ablResult,
		fmt.Sprintf("%d schedules; e.g. %s", abl.SchedulesChecked, clip(abl.FirstWitness, 48)))
	return Result{
		ID: "E8", Title: "Optimistic concurrency: failures, ablation (§3.1, §4.3)", Table: t,
		Notes: []string{
			"removing Listing 1 line 12 (the locked re-check) lets two thieves drain an overloaded core to idle — the executor and simulator keep it for exactly this reason",
		},
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// All regenerates every experiment in order, stopping early when ctx is
// cancelled (the experiments already produced are returned).
func All(ctx context.Context) []Result {
	runners := []func(context.Context) Result{
		E1Lemma1, E2SequentialConvergence, E3Counterexample, E4Potential,
		E5RoundCost, E6WastedCores, E7Hierarchical, E8Concurrent,
		E9ConvergenceRate, E10ServiceTail,
	}
	var results []Result
	for _, run := range runners {
		if ctx.Err() != nil {
			break
		}
		results = append(results, run(ctx))
	}
	return results
}
