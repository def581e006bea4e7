package engine

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service/faultinject"
)

func delta2Factory() sched.Policy { return policy.NewDelta2() }

func TestAllTasksExecute(t *testing.T) {
	p := NewPool(4, delta2Factory, Options{})
	defer p.Close()
	var count atomic.Int64
	const n = 1000
	for i := 0; i < n; i++ {
		p.Submit(func() { count.Add(1) })
	}
	p.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("executed %d of %d", got, n)
	}
	if got := p.Stats().Executed; got != n {
		t.Errorf("Stats.Executed = %d", got)
	}
}

func TestSkewedSubmissionGetsStolen(t *testing.T) {
	p := NewPool(4, delta2Factory, Options{})
	defer p.Close()
	const n = 400
	for i := 0; i < n; i++ {
		p.SubmitTo(0, func() {
			time.Sleep(200 * time.Microsecond)
		})
	}
	p.Wait()
	st := p.Stats()
	if st.Steals == 0 {
		t.Error("no steals despite all work submitted to worker 0")
	}
	if st.Executed != n {
		t.Errorf("Executed = %d, want %d", st.Executed, n)
	}
}

func TestStealFailuresUnderContention(t *testing.T) {
	// Many workers fighting over one short queue must sometimes lose the
	// race between selection and steal — the optimistic failures of
	// §3.1. Run several rounds to make the race overwhelmingly likely.
	p := NewPool(8, delta2Factory, Options{})
	defer p.Close()
	for round := 0; round < 50; round++ {
		for i := 0; i < 16; i++ {
			p.SubmitTo(0, func() { time.Sleep(20 * time.Microsecond) })
		}
		p.Wait()
	}
	st := p.Stats()
	t.Logf("steals=%d fails=%d", st.Steals, st.StealFails)
	if st.Steals == 0 {
		t.Error("no steals")
	}
}

func TestNullPolicyNeverSteals(t *testing.T) {
	p := NewPool(4, func() sched.Policy { return policy.NewNull() }, Options{})
	defer p.Close()
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		p.SubmitTo(0, func() { count.Add(1) })
	}
	p.Wait()
	if count.Load() != 100 {
		t.Fatalf("executed %d", count.Load())
	}
	if st := p.Stats(); st.Steals != 0 {
		t.Errorf("null policy stole %d tasks", st.Steals)
	}
}

func TestSubmitFromManyGoroutines(t *testing.T) {
	p := NewPool(4, delta2Factory, Options{})
	defer p.Close()
	var count atomic.Int64
	const producers, each = 8, 200
	doneProducing := make(chan struct{})
	for g := 0; g < producers; g++ {
		go func() {
			for i := 0; i < each; i++ {
				p.Submit(func() { count.Add(1) })
			}
			doneProducing <- struct{}{}
		}()
	}
	for g := 0; g < producers; g++ {
		<-doneProducing
	}
	p.Wait()
	if got := count.Load(); got != producers*each {
		t.Fatalf("executed %d of %d", got, producers*each)
	}
}

func TestTasksRunAfterClose(t *testing.T) {
	p := NewPool(2, delta2Factory, Options{})
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func() { count.Add(1) })
	}
	p.Close() // close with work still queued: it must still drain
	p.Wait()
	if count.Load() != 50 {
		t.Fatalf("executed %d of 50", count.Load())
	}
}

func TestSubmitAfterClosePanics(t *testing.T) {
	p := NewPool(1, delta2Factory, Options{})
	p.Close()
	defer func() {
		if recover() == nil {
			t.Error("Submit after Close did not panic")
		}
	}()
	p.Submit(func() {})
}

func TestPoolValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero workers": func() { NewPool(0, delta2Factory, Options{}) },
		"nil factory":  func() { NewPool(1, nil, Options{}) },
		"bad groups":   func() { NewPool(2, delta2Factory, Options{Groups: []int{0}}) },
		"nil task": func() {
			p := NewPool(1, delta2Factory, Options{})
			defer p.Close()
			p.Submit(nil)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
}

func TestGroupsReachPolicyViews(t *testing.T) {
	// A policy that records the groups it sees in views.
	type probe struct {
		*policy.Delta2
		sawGroup atomic.Int64
	}
	pr := &probe{Delta2: policy.NewDelta2()}
	factory := func() sched.Policy {
		return &sched.FuncPolicy{
			PolicyName: "probe",
			LoadFn:     func(c *sched.Core) int64 { return int64(c.NThreads()) },
			FilterFn: func(thief, stealee *sched.Core) bool {
				if stealee.Group == 1 {
					pr.sawGroup.Store(1)
				}
				return pr.Delta2.CanSteal(thief, stealee)
			},
		}
	}
	p := NewPool(2, factory, Options{Groups: []int{0, 1}})
	defer p.Close()
	for i := 0; i < 50; i++ {
		p.SubmitTo(1, func() { time.Sleep(50 * time.Microsecond) })
	}
	p.Wait()
	if pr.sawGroup.Load() != 1 {
		t.Error("policy views never carried group information")
	}
}

func TestFIFOWithinWorkerWithoutStealing(t *testing.T) {
	p := NewPool(1, func() sched.Policy { return policy.NewNull() }, Options{})
	defer p.Close()
	var order []int
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	for i := 0; i < 20; i++ {
		p.SubmitTo(0, func() {
			<-mu
			order = append(order, i)
			mu <- struct{}{}
		})
	}
	p.Wait()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("single worker executed out of order: %v", order)
		}
	}
}

func TestPlaceholders(t *testing.T) {
	a := placeholders(0)
	if a != nil {
		t.Error("placeholders(0) should be nil")
	}
	b := placeholders(10)
	if len(b) != 10 {
		t.Fatalf("len = %d", len(b))
	}
	c := placeholders(5)
	if len(c) != 5 {
		t.Fatalf("len = %d", len(c))
	}
	for _, task := range b {
		if task != placeholderTask {
			t.Fatal("placeholder slice contains a foreign task")
		}
	}
	big := placeholders(10_000)
	if len(big) != 10_000 {
		t.Fatalf("len = %d", len(big))
	}
}

func TestHierarchicalPolicyInPool(t *testing.T) {
	// Per-worker policy instances mean RoundObserver caches don't race.
	p := NewPool(4, func() sched.Policy { return policy.NewHierarchical() },
		Options{Groups: []int{0, 0, 1, 1}})
	defer p.Close()
	var count atomic.Int64
	for i := 0; i < 300; i++ {
		p.SubmitTo(2, func() {
			time.Sleep(100 * time.Microsecond)
			count.Add(1)
		})
	}
	p.Wait()
	if count.Load() != 300 {
		t.Fatalf("executed %d of 300", count.Load())
	}
}

func rescueFactory() sched.Policy {
	p, err := policy.New("delta2-rescue")
	if err != nil {
		panic(err)
	}
	return p
}

// rescueOnlyFactory builds a policy that never steals and re-homes every
// orphan on the lowest-ID online worker: under it a task leaves a queue
// only by running or by rescue, so rescue counts are exact.
func rescueOnlyFactory() sched.Policy {
	return &sched.FuncPolicy{
		PolicyName: "rescue-only",
		LoadFn:     func(c *sched.Core) int64 { return int64(c.NThreads()) },
		FilterFn:   func(_, _ *sched.Core) bool { return false },
		RescueFn: func(_ *sched.Core, _ *sched.Task, candidates []*sched.Core) *sched.Core {
			return sched.ChooseFirst(nil, candidates)
		},
	}
}

func TestKillRescuesQueuedTasks(t *testing.T) {
	p := NewPool(4, rescueOnlyFactory, Options{})
	defer p.Close()
	// Pin worker 0 on a gate task so its queue is guaranteed non-empty
	// when the kill lands (and nothing steals from it meanwhile), then
	// verify the rescue rule re-homed every queued task onto a survivor.
	gate := make(chan struct{})
	started := make(chan struct{})
	var count atomic.Int64
	p.SubmitTo(0, func() { close(started); <-gate })
	<-started
	const n = 40
	for i := 0; i < n; i++ {
		p.SubmitTo(0, func() { count.Add(1) })
	}
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	close(gate)
	p.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("executed %d of %d after the kill", got, n)
	}
	st := p.Stats()
	if st.Kills != 1 {
		t.Errorf("Kills = %d, want 1", st.Kills)
	}
	if st.Rescued != n {
		t.Errorf("Rescued = %d, want %d", st.Rescued, n)
	}
	if st.Orphaned != 0 {
		t.Errorf("Orphaned = %d, want 0", st.Orphaned)
	}

	// A task submitted to the dead worker is an orphan too and gets the
	// same offer, instead of waiting for a revival that may never come.
	const late = 5
	for i := 0; i < late; i++ {
		p.SubmitTo(0, func() { count.Add(1) })
	}
	p.Wait()
	if st := p.Stats(); st.Rescued != n+late || count.Load() != n+late {
		t.Errorf("after %d late submissions: Rescued = %d, executed %d, want %d", late, st.Rescued, count.Load(), n+late)
	}
}

func TestKillWithoutRescueStrandsUntilRevive(t *testing.T) {
	// The null policy neither steals nor rescues: a killed worker's queue
	// is stranded — visible in Stats().Orphaned — until Revive brings the
	// worker back to drain it.
	p := NewPool(2, func() sched.Policy { return policy.NewNull() }, Options{})
	defer p.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	var count atomic.Int64
	p.SubmitTo(0, func() { close(started); <-gate })
	<-started
	const n = 10
	for i := 0; i < n; i++ {
		p.SubmitTo(0, func() { count.Add(1) })
	}
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if st := p.Stats(); st.Orphaned != n {
		t.Errorf("Orphaned = %d while worker 0 is down, want %d", st.Orphaned, n)
	}
	if err := p.Revive(0); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("executed %d of %d after revival", got, n)
	}
	st := p.Stats()
	if st.Orphaned != 0 {
		t.Errorf("Orphaned = %d after revival, want 0", st.Orphaned)
	}
	if st.Kills != 1 || st.Revives != 1 {
		t.Errorf("Kills/Revives = %d/%d, want 1/1", st.Kills, st.Revives)
	}
}

func TestKillReviveValidation(t *testing.T) {
	p := NewPool(2, delta2Factory, Options{})
	defer p.Close()
	if err := p.Kill(-1); err == nil {
		t.Error("Kill(-1) accepted")
	}
	if err := p.Kill(2); err == nil {
		t.Error("Kill out of range accepted")
	}
	if err := p.Revive(0); err == nil {
		t.Error("Revive of an online worker accepted")
	}
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Kill(0); err == nil {
		t.Error("double Kill accepted")
	}
	if err := p.Kill(1); err == nil {
		t.Error("Kill of the last online worker accepted")
	}
	if err := p.Revive(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Revive(0); err == nil {
		t.Error("Revive of an online worker accepted")
	}
}

func TestKillPanicsOnOutOfContractRescuer(t *testing.T) {
	// A rescue rule that names the failed core itself is outside the
	// Rescuer contract. The executor must fail like the model does — a
	// panic from the shared rescue decision — not re-select forever.
	bad := func() sched.Policy {
		p := rescueOnlyFactory().(*sched.FuncPolicy)
		p.RescueFn = func(failed *sched.Core, _ *sched.Task, _ []*sched.Core) *sched.Core { return failed }
		return p
	}
	p := NewPool(2, bad, Options{})
	defer p.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	p.SubmitTo(0, func() { close(started); <-gate })
	<-started
	p.SubmitTo(0, func() {}) // the orphan
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		p.Kill(0)
	}()
	select {
	case r := <-panicked:
		if msg, _ := r.(string); !strings.Contains(msg, "not among online candidates") {
			t.Errorf("Kill panicked with %v, want the model's RescueTarget contract panic", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Kill is still re-selecting an adopter the rescue rule will never name")
	}
	// The decision precedes the pop: the orphan is still queued, so a
	// revival drains the pool.
	if err := p.Revive(0); err != nil {
		t.Fatal(err)
	}
	close(gate)
	p.Wait()
}

func TestChaosCoreKillDrainsUnderRescue(t *testing.T) {
	// A probabilistic core-kill chaos rule self-kills workers mid-run;
	// the rescue rule keeps every task accounted for. The last-online
	// guard means the pool can never wedge no matter how often it fires.
	faults := faultinject.New(faultinject.Rule{
		Op: faultinject.OpCoreKill, Kind: faultinject.KindFail, Prob: 0.05, Seed: 9,
	})
	p := NewPool(4, rescueFactory, Options{Faults: faults})
	defer p.Close()
	var count atomic.Int64
	const n = 400
	for i := 0; i < n; i++ {
		p.SubmitTo(i%2, func() {
			count.Add(1)
			time.Sleep(50 * time.Microsecond)
		})
	}
	p.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("executed %d of %d under chaos kills", got, n)
	}
	st := p.Stats()
	t.Logf("chaos: kills=%d rescued=%d steals=%d", st.Kills, st.Rescued, st.Steals)
	if st.Kills == 0 {
		t.Error("p=0.05 chaos rule never fired over the run")
	}
	if st.Orphaned != 0 {
		t.Errorf("Orphaned = %d after a drained run, want 0", st.Orphaned)
	}
}
