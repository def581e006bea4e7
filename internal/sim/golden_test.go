package sim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/trace"
)

// updateGolden regenerates testdata/golden-trace.txt from the simulator as
// it stands. The sweep reports are a function of these event streams, so
// it goes together with a loadgen.ReportVersion bump.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/sim/testdata/golden-trace.txt (only together with a loadgen.ReportVersion bump)")

const goldenFile = "testdata/golden-trace.txt"

type goldenScenario struct {
	name string
	cfg  Config
	// build schedules the scenario's tasks and faults and returns the
	// horizons to Run to, in order.
	build func(s *Simulator) []int64
}

func mustPolicy(name string) sched.Policy {
	p, err := policy.New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// goldenScenarios is the pinned corpus. Between them the scenarios take
// every transition (exit, block, yield, barrier), both round modes, idle
// balancing, fail/revive with and without a rescue rule (including the
// refused events, and spawns and wakes bound for an offline core, both
// rescued and stranded until the revive), weighted tasks
// under a TaskPicker, grouped machines under both RoundObservers, spawns
// posted out of time order and bursts of equal-time events.
func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{"rescue-faults-idle", Config{Cores: 4, Policy: mustPolicy("delta2-rescue"), Seed: 7, IdleBalance: true}, func(s *Simulator) []int64 {
			// Posted latest first: the queue, not the call order, sorts them.
			for i := 11; i >= 0; i-- {
				s.SpawnAt(int64(i)*3000, i%2, 1024, RunBlockLoop(1500+int64(i)*100, 2500, 3))
			}
			for i := 0; i < 6; i++ {
				s.SpawnAt(100, 0, 1024, RunOnce(9000))
			}
			s.SpawnAt(0, 3, 1024, RunForever(700))
			s.FailAt(20_000, 1)
			s.FailAt(21_000, 1) // already offline: refused
			s.ReviveAt(60_000, 1)
			s.ReviveAt(61_000, 1) // already online: refused
			s.FailAt(70_000, 0)
			s.ReviveAt(90_000, 0)
			return []int64{50_000, 200_000}
		}},
		{"barrier-hierarchical-sequential", Config{Cores: 8, Policy: mustPolicy("hierarchical"), Seed: 8,
			Groups: []int{0, 0, 0, 0, 1, 1, 1, 1}, Mode: RoundSequential}, func(s *Simulator) []int64 {
			b := NewBarrier(6)
			for i := 0; i < 6; i++ {
				s.SpawnAt(int64(i), 0, 1024, BarrierLoop(b, 2000+int64(i)*300, 12))
			}
			for i := 0; i < 5; i++ {
				s.SpawnAt(500, 4+i%2, 1024, RunForever(2500))
			}
			return []int64{300_000}
		}},
		{"stranded-until-revive", Config{Cores: 3, Policy: mustPolicy("delta2"), Seed: 9, BalancePeriod: 3000, Quantum: 400}, func(s *Simulator) []int64 {
			for i := 0; i < 5; i++ {
				s.SpawnAt(0, 0, 1024, RunBlockLoop(1000, 4000, 4))
				s.SpawnAt(0, 1, 1024, RunOnce(6000))
			}
			s.FailAt(1500, 0) // no task has blocked yet: the whole queue strands
			s.FailAt(2500, 1)
			s.FailAt(2600, 2) // the last online core: refused
			s.ReviveAt(30_000, 0)
			s.ReviveAt(45_000, 1)
			return []int64{10_000, 40_000, 150_000}
		}},
		{"weighted-churn-idle", Config{Cores: 4, Policy: mustPolicy("weighted"), Seed: 10, IdleBalance: true}, func(s *Simulator) []int64 {
			rng := NewRNG(99)
			for i := 0; i < 120; i++ {
				at := rng.Int63n(200_000)
				service := 500 + rng.Int63n(4000)
				weight := int64(256) << uint(rng.Intn(4))
				if rng.Float64() < 0.3 {
					s.SpawnAt(at, rng.Intn(2), weight, RunBlockLoop(service, 1000+rng.Int63n(2000), 2+rng.Intn(3)))
				} else {
					s.SpawnAt(at, 0, weight, RunOnce(service))
				}
			}
			return []int64{250_000, 500_000}
		}},
		{"cfs-group-buggy-equal-times", Config{Cores: 4, Policy: mustPolicy("cfs-group-buggy"), Seed: 11, Groups: []int{0, 0, 1, 1}}, func(s *Simulator) []int64 {
			s.SpawnAt(0, 1, 8192, RunOnce(150_000))
			for i := 0; i < 16; i++ {
				// Sixteen arrivals per instant, twice: FIFO among equals.
				s.SpawnAt(1000, 2+i%2, 1024, RunOnce(8000+int64(i)))
				s.SpawnAt(4000, 2, 1024, RunBlockLoop(900, 900, 2))
			}
			return []int64{400_000}
		}},
		{"greedy-contention", Config{Cores: 6, Policy: mustPolicy("greedy-buggy"), Seed: 12, BalancePeriod: 1000}, func(s *Simulator) []int64 {
			for i := 0; i < 7; i++ {
				s.SpawnAt(0, 0, 1024, RunOnce(40_000))
			}
			s.SpawnAt(12_345, 5, 1024, RunForever(300))
			return []int64{120_000}
		}},
		{"null-sequential-idle", Config{Cores: 2, Policy: mustPolicy("null"), Seed: 13, Mode: RoundSequential, IdleBalance: true}, func(s *Simulator) []int64 {
			for i := 0; i < 10; i++ {
				s.SpawnAt(int64(10-i)*100, 0, 1024, RunOnce(3000))
			}
			return []int64{60_000}
		}},
		{"wake-onto-failed-home", Config{Cores: 3, Policy: mustPolicy("delta2"), Seed: 14, BalancePeriod: 2000}, func(s *Simulator) []int64 {
			for i := 0; i < 3; i++ {
				s.SpawnAt(0, i, 1024, RunBlockLoop(600, 3000, 3))
			}
			s.SpawnAt(0, 2, 1024, RunOnce(20_000))
			// Core 0's task is blocked when its core fails: with no rescue
			// rule it wakes onto the offline home, and a later spawn there
			// strands beside it, until the revive.
			s.FailAt(1000, 0)
			s.SpawnAt(2000, 0, 1024, RunOnce(1500))
			s.ReviveAt(12_000, 0)
			return []int64{8000, 40_000}
		}},
	}
}

func histLine(h *metrics.Histogram) string {
	return fmt.Sprintf("n=%d mean=%v min=%d max=%d p50=%d p90=%d p99=%d p999=%d",
		h.Count(), h.Mean(), h.Min(), h.Max(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Quantile(0.999))
}

// statsLine renders every non-pointer leaf field of st as name=value,
// embedded structs inlined and the fields sorted by name, so the text
// depends on what Stats holds, not on how its declaration lays it out.
// The histograms behind its pointers get histLine.
func statsLine(st Stats) string {
	var fields []string
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			switch {
			case f.Anonymous && fv.Kind() == reflect.Struct:
				walk(fv)
			case fv.Kind() != reflect.Pointer:
				fields = append(fields, fmt.Sprintf("%s=%v", f.Name, fv.Interface()))
			}
		}
	}
	walk(reflect.ValueOf(st))
	slices.Sort(fields)
	return strings.Join(fields, " ")
}

// goldenTraceLine hashes what one scenario emits on the simulator
// start returns for its config: every trace event in order, the Stats
// of every Run, and the machine it leaves behind.
func goldenTraceLine(t *testing.T, g goldenScenario, start func(Config) *Simulator) string {
	t.Helper()
	const ringCap = 1 << 18
	ring := trace.NewRing(ringCap)
	cfg := g.cfg
	cfg.Ring = ring
	s := start(cfg)
	h := sha256.New()
	for _, until := range g.build(s) {
		st := s.Run(until)
		fmt.Fprintf(h, "%s\nlatency %s\nwait %s\n", statsLine(st), histLine(st.Latency), histLine(st.WaitTime))
	}
	if ring.Len() == ringCap {
		t.Fatalf("%s: ring full, events may have been dropped: the hash must cover the whole stream", g.name)
	}
	for _, e := range ring.Events() {
		fmt.Fprintln(h, e)
	}
	if err := s.Machine().Validate(); err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	fmt.Fprintln(h, s.Machine().Key())
	return fmt.Sprintf("%x  %s  events=%d", h.Sum(nil), g.name, ring.Len())
}

// TestGoldenTraces pins the simulator's behaviour event by event: the
// sweep reports (loadgen's TestGoldenSweeps) only see it through
// histograms and counters.
func TestGoldenTraces(t *testing.T) {
	cases := goldenScenarios()
	if *updateGolden {
		var b strings.Builder
		for _, g := range cases {
			b.WriteString(goldenTraceLine(t, g, New))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := goldenLines(t, len(cases))
	for i, g := range cases {
		if got := goldenTraceLine(t, g, New); got != want[i] {
			t.Errorf("simulator event stream changed: bump ReportVersion in internal/loadgen and regenerate (-update-golden)\n got %s\nwant %s", got, want[i])
		}
	}
}

// goldenLines reads the committed golden file, one line per case.
func goldenLines(t *testing.T, cases int) []string {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != cases {
		t.Fatalf("%s has %d lines for %d cases", goldenFile, len(want), cases)
	}
	return want
}

// TestResetMatchesNew runs every golden scenario on one simulator,
// Reset between them, so each runs on the slabs, heap and per-core
// slices of a different scenario before it — another core count,
// another task count, tasks left running, arrivals left pending at its
// last horizon. Each must emit exactly what it emits on a new
// simulator: the same events, Stats counters, histograms and final
// machine. The last scenario runs first as well, so the first one
// follows it too.
func TestResetMatchesNew(t *testing.T) {
	cases := goldenScenarios()
	want := goldenLines(t, len(cases))
	s := new(Simulator)
	reset := func(cfg Config) *Simulator {
		s.Reset(cfg)
		return s
	}
	order := []int{len(cases) - 1}
	for i := range cases {
		order = append(order, i)
	}
	for _, i := range order {
		if got := goldenTraceLine(t, cases[i], reset); got != want[i] {
			t.Errorf("%s after a Reset differs from a new simulator's run\n got %s\nwant %s", cases[i].name, got, want[i])
		}
	}
}

// TestResetLeavesEarlierStatsAlone: a Stats is a snapshot, and its
// Latency and WaitTime histograms are the simulator's own. A Reset must
// give the next run new ones, so a Stats kept from the run before it
// reads the same after the simulator has run again.
func TestResetLeavesEarlierStatsAlone(t *testing.T) {
	cases := goldenScenarios()
	render := func(st Stats) string {
		return fmt.Sprintf("%s\nlatency %s\nwait %s", statsLine(st), histLine(st.Latency), histLine(st.WaitTime))
	}
	s := New(cases[0].cfg)
	var kept Stats
	for _, until := range cases[0].build(s) {
		kept = s.Run(until)
	}
	before := render(kept)
	for _, g := range []goldenScenario{cases[0], cases[3]} {
		s.Reset(g.cfg)
		for _, until := range g.build(s) {
			s.Run(until)
		}
		if after := render(kept); after != before {
			t.Fatalf("a Stats kept from the first run changed when the simulator ran %s:\n%s\nwas\n%s", g.name, after, before)
		}
	}
}

// TestGoldenCountersMatchTraces holds every golden scenario's counters
// to its event stream: one KindStealFail per failed steal, idle or
// periodic; one KindRound per round; one KindFail or KindRevive per
// applied fault event; and Rescued is the rescues the KindFail events
// report plus one per spawn or wake that names the offline core it was
// moved off (Aux ≥ 0).
func TestGoldenCountersMatchTraces(t *testing.T) {
	for _, g := range goldenScenarios() {
		const ringCap = 1 << 18
		ring := trace.NewRing(ringCap)
		cfg := g.cfg
		cfg.Ring = ring
		s := New(cfg)
		var st Stats
		for _, until := range g.build(s) {
			st = s.Run(until)
		}
		if ring.Len() == ringCap {
			t.Fatalf("%s: ring full, events may have been dropped", g.name)
		}
		kinds := map[trace.Kind]int64{}
		var rescued int64
		for _, e := range ring.Events() {
			kinds[e.Kind]++
			switch {
			case e.Kind == trace.KindFail:
				rescued += e.Aux
			case (e.Kind == trace.KindSpawn || e.Kind == trace.KindWake) && e.Aux >= 0:
				rescued++
			}
		}
		got := sched.Counters{
			Rounds:     kinds[trace.KindRound],
			StealFails: kinds[trace.KindStealFail],
			Faults:     kinds[trace.KindFail] + kinds[trace.KindRevive],
			Rescued:    rescued,
		}
		want := st.Counters
		want.Steals, want.Orphaned = 0, 0
		if got != want {
			t.Errorf("%s: the trace counts %+v, Stats %+v", g.name, got, want)
		}
	}
}

// pickLog is a rescue-rule policy that forwards every call to the one
// under test and logs each adopter its rule picks, in call order.
type pickLog struct {
	sched.Policy
	rule  sched.Rescuer
	picks []pick
}

// pick is one adoption: a task bound for offline core failed went to to.
type pick struct{ failed, to int }

var _ sched.Rescuer = (*pickLog)(nil)

func (l *pickLog) RescueTarget(failed *sched.Core, candidates []*sched.Core) *sched.Core {
	to := l.rule.RescueTarget(failed, candidates)
	if to != nil {
		l.picks = append(l.picks, pick{failed.ID, to.ID})
	}
	return to
}

// TestWakeLandsWhereTheTaskLastStarted replays every golden scenario's
// event stream and holds each wake to sched.Place: a task wakes on the
// core it last started on while that core is online; otherwise on the
// core the policy's rescue rule picked, the wake's Aux naming the
// offline home; and without a pick, on the offline home itself, where it
// does not start before the home's revive. A task blocks only while it
// runs, so the core of its latest start is the only home a wake can
// need. The rescue rule's picks are consumed in the order the trace
// reports them: a fail's rescues, then one per spawn or wake with
// Aux ≥ 0.
func TestWakeLandsWhereTheTaskLastStarted(t *testing.T) {
	var wakes, rescued, stranded, revived int
	for _, g := range goldenScenarios() {
		const ringCap = 1 << 18
		ring := trace.NewRing(ringCap)
		cfg := g.cfg
		cfg.Ring = ring
		log := &pickLog{Policy: cfg.Policy}
		if rule, ok := cfg.Policy.(sched.Rescuer); ok {
			switch cfg.Policy.(type) {
			case sched.RoundObserver, sched.TaskPicker:
				t.Fatalf("%s: pickLog would hide %s's other extensions", g.name, cfg.Policy.Name())
			}
			log.rule = rule
			cfg.Policy = log
		}
		s := New(cfg)
		for _, until := range g.build(s) {
			s.Run(until)
		}
		if ring.Len() == ringCap {
			t.Fatalf("%s: ring full, events may have been dropped", g.name)
		}
		offline := make([]bool, cfg.Cores)
		lastStart := map[int64]int{}
		waiting := map[int64]int{} // stranded task → its offline home
		next := 0                  // the first pick no event has reported yet
		takePick := func(e trace.Event, failed int) {
			if next == len(log.picks) {
				t.Fatalf("%s: %v reports a rescue the rule never picked", g.name, e)
			}
			if p := log.picks[next]; p.failed != failed || (e.Kind != trace.KindFail && p.to != e.Core) {
				t.Errorf("%s: %v, but the rule picked c%d for offline c%d", g.name, e, p.to, p.failed)
			}
			next++
		}
		for _, e := range ring.Events() {
			switch e.Kind {
			case trace.KindFail:
				offline[e.Core] = true
				for range e.Aux {
					takePick(e, e.Core)
				}
			case trace.KindRevive:
				offline[e.Core] = false
			case trace.KindSpawn:
				if e.Aux >= 0 {
					takePick(e, int(e.Aux))
				}
			case trace.KindStart:
				if home, ok := waiting[e.Task]; ok {
					if offline[home] {
						t.Errorf("%s: %v before offline home c%d revived", g.name, e, home)
					}
					delete(waiting, e.Task)
					revived++
				}
				lastStart[e.Task] = e.Core
			case trace.KindWake:
				home, ok := lastStart[e.Task]
				if !ok {
					t.Fatalf("%s: %v wakes a task that never started", g.name, e)
				}
				wakes++
				switch {
				case !offline[home]:
					if e.Core != home || e.Aux != -1 {
						t.Errorf("%s: %v, want core %d, aux -1 (its online home)", g.name, e, home)
					}
				case e.Aux >= 0:
					rescued++
					if e.Aux != int64(home) {
						t.Errorf("%s: %v, want aux %d (its offline home)", g.name, e, home)
					}
					takePick(e, home)
				default:
					stranded++
					if e.Core != home {
						t.Errorf("%s: %v, want core %d (its offline home, no rescue picked)", g.name, e, home)
					}
					waiting[e.Task] = home
				}
			}
		}
		if next != len(log.picks) {
			t.Errorf("%s: the rule picked %d adopters, the trace reports %d", g.name, len(log.picks), next)
		}
	}
	if wakes == 0 || rescued == 0 || stranded == 0 || revived == 0 {
		t.Errorf("the golden scenarios wake %d tasks, %d rescued off an offline home, %d stranded on one (%d started after its revive): the rule is not exercised",
			wakes, rescued, stranded, revived)
	}
	t.Logf("%d wakes checked: %d rescued off an offline home, %d stranded on one, %d of those started after its revive", wakes, rescued, stranded, revived)
}
