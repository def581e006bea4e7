package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service/store"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/verify"
)

// This file is the layer replay: each probe calls one layer's public
// functions from outside, on the inputs the workload's op feeds that
// layer, and records the call as a span. Nanosecond-scale functions are
// timed as one span over a batch of calls.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// mallocs is the process's cumulative allocation count; exact for a probe
// that runs alone on one goroutine.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// skewed is the 8-core machine the policy and sched probes run on: idle
// cores next to overloaded ones, so Select has candidates and a round
// moves work.
func skewed() *sched.Machine { return sched.MachineFromLoads(0, 3, 1, 4, 0, 2, 5, 1) }

// clones pre-builds machines for probes whose call mutates its input, so
// only the call itself is inside the span.
func clones(n int) []*sched.Machine {
	base := skewed()
	ms := make([]*sched.Machine, n)
	for i := range ms {
		ms[i] = base.Clone()
	}
	return ms
}

// probePolicy: Select on the skewed machine, and the interpreter tax —
// one sequential round under the dsl.Compile'd Listing 1 over the same
// round under policy.NewDelta2.
func probePolicy(tr *traceRun, out values) {
	n := tr.reps(20_000)
	p := policy.NewDelta2()
	m := skewed()
	tr.span("policy.select", 0, n*len(m.Cores), func() {
		for i := 0; i < n; i++ {
			for thief := range m.Cores {
				sink += sched.Select(p, m, thief).Victim
			}
		}
	})
	d, calls := tr.t.perCall("policy.select")
	out.set("policy.select_ns", float64(d), calls)

	interpreted, _, err := dsl.CompileSource(delta2Src.render(newRNG(0, 0)))
	if err != nil {
		panic(err) // delta2Src parsed in every workload's setup already
	}
	rounds := tr.reps(2_000)
	for _, side := range []struct {
		name string
		p    sched.Policy
	}{{"policy.round_native", p}, {"policy.round_dsl", interpreted}} {
		ms := clones(rounds)
		tr.span(side.name, 0, rounds, func() {
			for _, m := range ms {
				res := sched.SequentialRound(side.p, m)
				sink += res.TasksMoved()
			}
		})
	}
	native, _ := tr.t.perCall("policy.round_native")
	interp, _ := tr.t.perCall("policy.round_dsl")
	out.set("policy.dsl_over_native", ratio(float64(interp), float64(native)), rounds)
}

// probeSched: one concurrent round, Machine.Clone and Machine.Key on the
// skewed machine.
func probeSched(tr *traceRun, out values) {
	p := policy.NewDelta2()
	rounds := tr.reps(2_000)
	ms := clones(rounds)
	order := sched.IdentityOrder(len(ms[0].Cores))
	tr.span("sched.round", 0, rounds, func() {
		for _, m := range ms {
			res := sched.ConcurrentRound(p, m, order)
			sink += res.TasksMoved()
		}
	})
	d, calls := tr.t.perCall("sched.round")
	out.set("sched.round_us", us(d), calls)

	n := tr.reps(20_000)
	m := skewed()
	tr.span("sched.clone", 0, n, func() {
		for i := 0; i < n; i++ {
			sink += len(m.Clone().Cores)
		}
	})
	d, calls = tr.t.perCall("sched.clone")
	out.set("sched.clone_ns", float64(d), calls)
	tr.span("sched.key", 0, n, func() {
		for i := 0; i < n; i++ {
			sink += len(m.Key())
		}
	})
	d, calls = tr.t.perCall("sched.key")
	out.set("sched.key_ns", float64(d), calls)
}

// ---- the verifyd workloads ----

// replayStep is one submission of the op with the obligations the memo
// model says the daemon re-runs for it.
type replayStep struct {
	sub   submission
	rerun []verify.ObligationID
}

// plan is the op as the memo model sees it, starting from primed.
func plan(primed []submission, subs []submission) []replayStep {
	model := memoModel{}
	for _, s := range primed {
		model.misses(s)
	}
	steps := make([]replayStep, len(subs))
	for i, s := range subs {
		steps[i] = replayStep{s, model.misses(s)}
	}
	return steps
}

func (w *coldWorkload) layers(tr *traceRun, out values) error {
	if err := w.verifydLayers(tr, out, plan(nil, w.subs)); err != nil {
		return err
	}
	return probeDefaultPoll(tr, out, w, w.d)
}

func (w *warmWorkload) layers(tr *traceRun, out values) error {
	return w.verifydLayers(tr, out, plan(w.subs, w.subs))
}

func (w *editWorkload) layers(tr *traceRun, out values) error {
	if err := w.verifydLayers(tr, out, plan([]submission{w.base}, w.subs)); err != nil {
		return err
	}
	if err := probeDefaultPoll(tr, out, w, w.d); err != nil {
		return err
	}
	out.set("store.appends_per_op", tr.perOp("appends"), tr.ops)
	out.set("store.wal_bytes_per_op", tr.perOp("wal_bytes"), tr.ops)
	return probeStore(tr, out)
}

// verifydLayers replays what one op makes each layer under the daemon do.
func (v *verifyd) verifydLayers(tr *traceRun, out values, steps []replayStep) error {
	v.probeDSL(tr, out)
	probeStatespace(tr, out, steps)
	direct := probeVerify(tr, out, steps)

	// service: Submit straight into the service on the warm memo the ops
	// left behind — no HTTP, no client.
	rounds := tr.reps(200)
	var reports []*verify.Report
	for r := 0; r < rounds; r++ {
		for _, s := range v.subs {
			id := tr.t.begin("service.submit_hit", -1, r)
			rep, _, err := v.d.svc.Submit(s.req)
			tr.t.end(id)
			if err != nil || rep == nil {
				return fmt.Errorf("%s: Submit on a warm memo was not answered from it (err %v)", s.row, err)
			}
			if r == 0 {
				reports = append(reports, rep)
			}
		}
	}
	hit, calls := tr.t.perCall("service.submit_hit")
	out.set("service.submit_hit_us", us(hit), calls)

	// The same hits through the client and HTTP: what is left after
	// subtracting the direct call is the HTTP layer's own time.
	var trips []time.Duration
	for r := 0; r < rounds; r++ {
		for _, s := range v.subs {
			t0 := time.Now()
			if _, err := v.d.client.Verify(context.Background(), s.req); err != nil {
				return err
			}
			trips = append(trips, time.Since(t0))
		}
	}
	out.set("service.http_self_us", us(median(trips)-hit), len(trips))
	out.set("service.daemon_self_ms", ms(tr.p50()-direct), tr.ops)
	out.set("service.hit_ratio", ratio(tr.delta["hits"], tr.delta["hits"]+tr.delta["misses"]), tr.ops)
	out.set("service.reruns_per_op", tr.perOp("misses"), tr.ops)

	// verify's report codec, paid once per submission, hits included.
	for r := 0; r < rounds; r++ {
		for _, rep := range reports {
			id := tr.t.begin("verify.report_json", -1, r)
			data, err := verify.ReportJSON(rep)
			if err == nil {
				_, err = verify.ReportFromJSON(data)
			}
			tr.t.end(id)
			if err != nil {
				return err
			}
		}
	}
	d, calls := tr.t.perCall("verify.report_json")
	out.set("verify.report_json_us", us(d), calls)

	// client
	out.set("client.polls_per_op", tr.perOp("polls"), tr.ops)
	return nil
}

// probeDefaultPoll runs the op under the client's default poll settings
// and reports how much longer the median op takes than under the pinned
// poll: what a user who does not tune the client pays per op.
func probeDefaultPoll(tr *traceRun, out values, w workload, d *daemon) error {
	n := tr.reps(8)
	base := tr.e.scaled(warmupOps) + 2*tr.ops
	pinned := d.client
	d.client = d.newClient(0)
	sec := runOps(w, n, base)
	d.client = pinned
	if sec.failed > 0 {
		return fmt.Errorf("default-poll ops failed: %w", sec.first)
	}
	out.set("client.default_poll_wait_ms", ms(median(sec.lat)-tr.p50()), n)
	return nil
}

// probeDSL: the front end on the workload's own sources, stage by stage.
func (v *verifyd) probeDSL(tr *traceRun, out values) {
	rounds := tr.reps(500)
	for r := 0; r < rounds; r++ {
		for _, s := range v.subs {
			if s.source == "" {
				continue
			}
			id := tr.t.begin("dsl.parse", -1, r)
			ast, err := dsl.Parse(s.source)
			tr.t.end(id)
			if err != nil {
				panic(err) // parsed in setup already
			}
			id = tr.t.begin("dsl.forms", -1, r)
			for _, form := range dsl.ComponentForms(ast) {
				sink += len(dsl.Fingerprint(form))
			}
			tr.t.end(id)
			id = tr.t.begin("dsl.analyze", -1, r)
			sink += len(dsl.Analyze(ast, dsl.AnalyzeOptions{MaxFaults: s.universe.MaxFaults}))
			tr.t.end(id)
			id = tr.t.begin("dsl.compile", -1, r)
			sink += len(dsl.Compile(ast).Name())
			tr.t.end(id)
		}
	}
	for _, stage := range []string{"parse", "forms", "analyze", "compile"} {
		d, calls := tr.t.perCall("dsl." + stage)
		out.set("dsl."+stage+"_us", us(d), calls)
	}
}

// probeStatespace enumerates, with a callback that does nothing, every
// distinct universe the op's re-runs quantify over.
func probeStatespace(tr *traceRun, out values, steps []replayStep) {
	var universes []statespace.Universe
	seen := map[string]bool{}
	for _, st := range steps {
		if key := st.sub.universe.Canonical(); len(st.rerun) > 0 && !seen[key] {
			seen[key] = true
			universes = append(universes, st.sub.universe)
		}
	}
	if len(universes) == 0 {
		return
	}
	rounds := tr.reps(20)
	states := 0
	before := mallocs()
	for r := 0; r < rounds; r++ {
		states = 0
		tr.span("statespace.enumerate", r, 1, func() {
			for _, u := range universes {
				u.Enumerate(func(*sched.Machine) bool { states++; return true })
			}
		})
	}
	allocs := float64(mallocs()-before) / float64(rounds)
	d, _ := tr.t.perCall("statespace.enumerate")
	out.set("statespace.states_per_op", float64(states), rounds)
	out.set("statespace.enum_ns_per_state", float64(d)/float64(states), rounds)
	out.set("statespace.enum_allocs_per_state", allocs/float64(states), rounds)
}

// probeVerify runs the op's re-runs straight on the verifier: each
// obligation sequentially (the per-ID cost and the exact state counts),
// then each submission's re-run set the way the daemon's one job slot
// runs it, on two workers. It returns the latter's time per op.
func probeVerify(tr *traceRun, out values, steps []replayStep) time.Duration {
	ctx := context.Background()
	rounds := tr.reps(3)
	var states, schedules int
	before := mallocs()
	for r := 0; r < rounds; r++ {
		states, schedules = 0, 0
		for _, st := range steps {
			for _, id := range st.rerun {
				span := tr.t.begin("verify.ob."+string(id), -1, r)
				res := verify.RunObligation(ctx, id, st.sub.factory, verify.Config{Universe: st.sub.universe, Sequential: true})
				tr.t.end(span)
				states += res.StatesChecked
				schedules += res.SchedulesChecked
			}
		}
	}
	allocs := float64(mallocs()-before) / float64(rounds)
	var sequential time.Duration
	for _, id := range verify.AllObligations() {
		d, n := tr.t.perOp("verify.ob." + string(id))
		out.set("verify.ob_ms."+string(id), ms(d), n)
		sequential += d
	}
	if states == 0 {
		return 0 // every obligation of the op is a memo hit
	}
	out.set("verify.states_checked_per_op", float64(states), rounds)
	out.set("verify.schedules_checked_per_op", float64(schedules), rounds)
	out.set("verify.states_per_s", float64(states)/sequential.Seconds(), rounds)
	out.set("verify.allocs_per_state", allocs/float64(states), rounds)

	rounds = tr.reps(10)
	for r := 0; r < rounds; r++ {
		for _, st := range steps {
			if len(st.rerun) == 0 {
				continue
			}
			span := tr.t.begin("verify.direct", -1, r)
			verify.PolicyContext(ctx, st.sub.row, st.sub.factory, verify.Config{
				Universe: st.sub.universe, Obligations: st.rerun, Parallelism: 2,
			})
			tr.t.end(span)
		}
	}
	direct, n := tr.t.perOp("verify.direct")
	out.set("verify.direct_ms", ms(direct), n)
	out.set("verify.par2_speedup", ratio(float64(sequential), float64(direct)), n)
	return direct
}

// probeStore: the durable memo on its own — 2 000 fsynced appends, a
// recovery of that WAL, a compaction of it.
func probeStore(tr *traceRun, out values) error {
	dir, err := os.MkdirTemp(tr.e.tmp, "store-")
	if err != nil {
		return err
	}
	n := tr.reps(2_000)
	opts := store.Options{CompactEvery: n + 1} // no compaction until asked
	st, _, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	res := verify.Result{ID: verify.ObLemma1, Passed: true, StatesChecked: 4096}
	for i := 0; i < n; i++ {
		id := tr.t.begin("store.append", -1, i)
		err := st.Append(fmt.Sprintf("%064x", i), res)
		tr.t.end(id)
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	id := tr.t.begin("store.open_recover", -1, 0)
	st, entries, err := store.Open(dir, opts)
	tr.t.end(id)
	if err != nil {
		return err
	}
	defer st.Close()
	if len(entries) != n {
		return fmt.Errorf("store recovered %d of %d records", len(entries), n)
	}
	id = tr.t.begin("store.compact", -1, 0)
	err = st.Compact()
	tr.t.end(id)
	if err != nil {
		return err
	}
	d, calls := tr.t.perCall("store.append")
	out.set("store.append_us", us(d), calls)
	d, _ = tr.t.perCall("store.open_recover")
	out.set("store.open_recover_ms", ms(d), n)
	d, _ = tr.t.perCall("store.compact")
	out.set("store.compact_ms", ms(d), n)
	return nil
}

// ---- service-sweep ----

func (w *sweepWorkload) layers(tr *traceRun, out values) error {
	cfg := sweepConfig(w.seed0)
	dist := loadgen.NewBoundedPareto(1.5, 1_000, 1_000_000)
	mall := loadgen.MalleableSpec{ParallelFraction: 0.25, MaxWidth: 4, SpeedupExponent: 0.85}
	const load, cores = 0.9, 8
	gap := mall.ExpectedCPU(dist.Mean()) / (load * cores)

	// loadgen: what generating one job costs — the next arrival, its work
	// and its malleable split (the loop of loadgen.Service.Setup).
	jobs := tr.reps(200_000)
	arrivals := loadgen.NewPoisson(gap)
	rng := sim.NewRNG(w.seed0)
	tr.span("loadgen.generate", 0, jobs, func() {
		for i := 0; i < jobs; i++ {
			t := arrivals.Next(rng)
			work := dist.Sample(rng)
			k := 1
			if rng.Float64() < mall.ParallelFraction {
				k = 2 + rng.Intn(mall.MaxWidth-1)
			}
			sink += int(t) + int(float64(work)/mall.Speedup(k))
		}
	})
	d, calls := tr.t.perCall("loadgen.generate")
	out.set("loadgen.gen_ns_per_job", float64(d), calls)

	// sim: one point of the sweep, direct, under Listing 1 and under the
	// null balancer on the same arrivals.
	rounds := tr.reps(20)
	var stats sim.Stats
	point := func(name string, p func() sched.Policy) (allocs float64) {
		before := mallocs()
		for r := 0; r < rounds; r++ {
			tr.span(name, r, 1, func() {
				s := sim.New(sim.Config{Cores: cores, Policy: p(), Groups: []int{0, 0, 0, 0, 1, 1, 1, 1}, Seed: w.seed0})
				svc := &loadgen.Service{
					Arrivals: loadgen.NewPoisson(gap), Work: dist, Malleable: mall,
					Horizon: cfg.Horizon, ArrivalCores: []int{0, 1},
				}
				svc.Setup(s)
				s.Run(cfg.Horizon)
				stats = s.Run(cfg.Horizon + cfg.Horizon/2)
			})
		}
		return float64(mallocs()-before) / float64(rounds)
	}
	point("sim.point_null", func() sched.Policy { return policy.NewNull() })
	allocs := point("sim.point_delta2", func() sched.Policy { return policy.NewDelta2() })
	host, _ := tr.t.perCall("sim.point_delta2")
	null, _ := tr.t.perCall("sim.point_null")
	out.set("sim.ticks_per_host_s", float64(stats.Duration)/host.Seconds(), rounds)
	out.set("sim.completions_per_host_s", float64(stats.Completed)/host.Seconds(), rounds)
	out.set("sim.allocs_per_completion", allocs/float64(stats.Completed), rounds)
	out.set("sim.balance_share", 1-ratio(float64(null), float64(host)), rounds)
	out.set("sim.steal_fail_ratio", ratio(float64(stats.StealFails), float64(stats.Steals+stats.StealFails)), rounds)

	// metrics: the latency histogram the sim records into and the sweep
	// reads its percentiles from.
	n := tr.reps(1_000_000)
	h := metrics.NewHistogram(32)
	x := uint64(w.seed0)
	tr.span("metrics.hist_record", 0, n, func() {
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Record(int64(x >> 44)) // 20-bit latencies
		}
	})
	d, calls = tr.t.perCall("metrics.hist_record")
	out.set("metrics.hist_record_ns", float64(d), calls)
	q := tr.reps(2_000)
	tr.span("metrics.hist_quantile", 0, q, func() {
		for i := 0; i < q; i++ {
			sink += int(h.Quantile(0.99))
		}
	})
	d, calls = tr.t.perCall("metrics.hist_quantile")
	out.set("metrics.hist_quantile_us", us(d), calls)
	return nil
}

// ---- executor-skew ----

func (w *executorWorkload) layers(tr *traceRun, out values) error {
	mean := tr.untraced.wall.Seconds() / float64(tr.ops)
	out.set("engine.tasks_per_s", executorTasks/mean, tr.ops)
	submit, calls := tr.t.perCall("engine.submit")
	out.set("engine.submit_ns", float64(submit), calls)
	steals, fails := tr.delta["steals"], tr.delta["steal_fails"]
	out.set("engine.steals_per_ktask", 1000*steals/(executorTasks*float64(tr.ops)), tr.ops)
	// The paper's optimistic failure rate: attempts that lost the race
	// between lock-free selection and the locked re-validation.
	out.set("engine.steal_fail_ratio", ratio(fails, steals+fails), tr.ops)

	// The same batch with balancing off: worker 0 runs all of it.
	null := newPool(func() sched.Policy { return policy.NewNull() })
	defer null.Close()
	rounds := tr.reps(10)
	for r := 0; r < rounds; r++ {
		id := tr.t.begin("engine.null_batch", -1, r)
		err := runBatch(nil, null, w.tasks, &w.sum, w.want, -1, r)
		tr.t.end(id)
		if err != nil {
			return err
		}
	}
	d, _ := tr.t.perCall("engine.null_batch")
	out.set("engine.null_tasks_per_s", executorTasks/d.Seconds(), rounds)

	// Fail-stop and hotplug with work queued on the victim: Listing 1 has
	// no rescue rule, so the queue is stranded until Revive.
	rounds = tr.reps(200)
	var parked engine.Task = func() {}
	for r := 0; r < rounds; r++ {
		for i := 0; i < 64; i++ {
			w.pool.SubmitTo(1, parked)
		}
		id := tr.t.begin("engine.kill_revive", -1, r)
		err := w.pool.Kill(1)
		if err == nil {
			err = w.pool.Revive(1)
		}
		tr.t.end(id)
		if err != nil {
			return err
		}
		w.pool.Wait()
	}
	d, calls = tr.t.perCall("engine.kill_revive")
	out.set("engine.kill_revive_us", us(d), calls)
	return nil
}
