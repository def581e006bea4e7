package engine

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sched"
)

func delta2Factory() sched.Policy { return policy.NewDelta2() }

func TestAllTasksExecute(t *testing.T) {
	p := NewPool(4, delta2Factory, Options{})
	defer p.Close()
	var count atomic.Int64
	const n = 1000
	for i := 0; i < n; i++ {
		p.SubmitTo(i%4, func() { count.Add(1) })
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
				p.SubmitTo((g+i)%4, func() { count.Add(1) })
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
		p.SubmitTo(i%2, func() { count.Add(1) })
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
			t.Error("SubmitTo after Close did not panic")
		}
	}()
	p.SubmitTo(0, func() {})
}

func TestPoolValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero workers": func() { NewPool(0, delta2Factory, Options{}) },
		"nil factory":  func() { NewPool(1, nil, Options{}) },
		"bad groups":   func() { NewPool(2, delta2Factory, Options{Groups: []int{0}}) },
		"nil task": func() {
			p := NewPool(1, delta2Factory, Options{})
			defer p.Close()
			p.SubmitTo(0, nil)
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
		RescueFn: func(_ *sched.Core, candidates []*sched.Core) *sched.Core {
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
	if st.Faults != 1 {
		t.Errorf("Faults = %d after one kill, want 1", st.Faults)
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
	if st.Faults != 2 {
		t.Errorf("Faults = %d after a kill and a revive, want 2", st.Faults)
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
		p.RescueFn = func(failed *sched.Core, _ []*sched.Core) *sched.Core { return failed }
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
	// A seeded chaos goroutine kills random workers mid-run; the rescue
	// rule keeps every task accounted for. The last-online guard means
	// the pool can never wedge no matter how often it strikes.
	p := NewPool(4, rescueFactory, Options{})
	defer p.Close()
	stop, stopped := make(chan struct{}), make(chan struct{})
	var count, kills atomic.Int64
	const n = 400
	for i := 0; i < n; i++ {
		p.SubmitTo(i%2, func() {
			count.Add(1)
			time.Sleep(50 * time.Microsecond)
		})
	}
	go func() {
		defer close(stopped)
		rng := rand.New(rand.NewPCG(9, 0))
		for {
			if p.Kill(rng.IntN(4)) == nil { // refused when offline already or the last online
				kills.Add(1)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(rng.IntN(400)) * time.Microsecond):
			}
		}
	}()
	p.Wait()
	close(stop)
	<-stopped
	if got := count.Load(); got != n {
		t.Fatalf("executed %d of %d under chaos kills", got, n)
	}
	st := p.Stats()
	t.Logf("chaos: kills=%d rescued=%d steals=%d", kills.Load(), st.Rescued, st.Steals)
	if kills.Load() == 0 {
		t.Error("the chaos goroutine never killed a worker over the run")
	}
	if st.Faults != kills.Load() {
		t.Errorf("Faults = %d after %d kills", st.Faults, kills.Load())
	}
	if st.Orphaned != 0 {
		t.Errorf("Orphaned = %d after a drained run, want 0", st.Orphaned)
	}
}

// spin is a task body that takes some ten microseconds, allocates nothing
// and yields, so two workers interleave even on one CPU.
func spin() {
	for i := 0; i < 2000; i++ {
		spinSink.Add(1)
	}
	runtime.Gosched()
}

var spinSink atomic.Int64

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func TestStealPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the steal path; the pin runs without -race")
	}
	// The executor-skew shape: everything lands on worker 0 and worker 1
	// lives on optimistic steals. The first batch sizes the views' buffers
	// and the workers' sleep timers; every later one, submission included,
	// may allocate only worker 0's ring, in one step. How many tasks
	// worker 1 steals depends on thread timing, so up to five warmed
	// batches run until one of them has exercised the steal path.
	p := NewPool(2, delta2Factory, Options{})
	defer p.Close()
	tasks := make([]Task, 4000)
	for i := range tasks {
		tasks[i] = spin
	}
	batch := func() (steals int64, allocated uint64) {
		s0, m0 := p.Stats().Steals, mallocs()
		for _, task := range tasks {
			p.SubmitTo(0, task)
		}
		p.Wait()
		return p.Stats().Steals - s0, mallocs() - m0
	}
	batch()
	var most int64
	for try := 0; try < 5 && most <= 1000; try++ {
		steals, allocated := batch()
		t.Logf("%d steals, %d objects allocated", steals, allocated)
		most = max(most, steals)
		if allocated > 5 {
			t.Errorf("a warmed batch of %d tasks and %d steals allocated %d objects, want at most 5", len(tasks), steals, allocated)
		}
	}
	if most <= 1000 {
		t.Fatalf("at most %d steals of %d tasks in five batches: none exercised the steal path", most, len(tasks))
	}
}

func TestIdlePoolAllocatesNothing(t *testing.T) {
	// An idle worker still runs the lock-free phase every turn, on a
	// small pool and on a wide one.
	for _, workers := range []int{8, 128} {
		p := NewPool(workers, delta2Factory, Options{})
		// The first turn of each worker sizes its view's buffers: let every
		// worker through it, then require a quiet window. Under -race the
		// 128 first turns (some 150 KB of buffers each) can spread over more
		// than a second, so the search for a quiet window gets five; an
		// allocation on every turn would leave none quiet however long.
		time.Sleep(100 * time.Millisecond)
		least := ^uint64(0)
		for try := 0; try < 25 && least > 0; try++ {
			m0 := mallocs()
			time.Sleep(200 * time.Millisecond)
			least = min(least, mallocs()-m0)
		}
		if least != 0 {
			t.Errorf("%d idle workers allocate at least %d objects per 200ms, want 0", workers, least)
		}
		p.Close()
	}
}

func TestStealViewRefreshIsComplete(t *testing.T) {
	// The views are overwritten in place: after every transition each of
	// them must equal a view built from nothing, so no field of an earlier
	// refresh (a Current, an Offline, a longer runqueue or its totals)
	// survives, and the layout Reset gave it does. Step 3's re-fill of the
	// thief and victim cores, made on a view that still shows the previous
	// transition, must rewrite those two cores exactly and no other. The
	// want cores go through the same installer as fill, so each view's
	// totals are also recomputed from its queue.
	type state struct {
		qlen             int
		running, offline bool
	}
	groups := []int{0, 1, 1}
	p := newPool(len(groups), delta2Factory, Options{Groups: groups})
	var prev []*sched.Core // the cores the last transition's refresh left
	for step, states := range [][]state{
		{{5, true, false}, {0, false, false}, {2, true, false}},
		{{0, false, false}, {0, false, false}, {2, false, false}},  // busy -> idle
		{{3, true, false}, {9000, true, true}, {0, false, false}},  // killed, long queue
		{{3, false, false}, {0, false, false}, {1, true, true}},    // revived, long queue -> empty
		{{0, false, true}, {0, false, false}, {0, false, false}},   // everything cleared
		{{1, true, false}, {12000, true, false}, {4, false, true}}, // and set again
	} {
		want := make([]*sched.Core, len(states))
		for i, st := range states {
			w := p.workers[i]
			for w.pop() != nil {
			}
			for range st.qlen {
				w.push(spin)
			}
			w.running.Store(st.running)
			w.setOffline(st.offline)
			want[i] = &sched.Core{ID: i, Group: groups[i], Node: groups[i], Offline: st.offline}
			want[i].ShareDefaultQueue(placeholders(st.qlen))
			if st.running {
				want[i].Current = placeholderTask
			}
		}
		for i, w := range p.workers {
			victim := p.workers[(i+1)%len(p.workers)]
			if prev != nil {
				w.fill(w.view.Cores[w.id], w.queue.n)
				victim.fill(w.view.Cores[victim.id], victim.queue.n)
				for j, c := range w.view.Cores {
					exp := prev[j]
					if j == w.id || j == victim.id {
						exp = want[j]
					}
					if !reflect.DeepEqual(c, exp) {
						t.Errorf("step %d: worker %d re-filled against worker %d, and its view's core %d is %v, want %v",
							step, i, victim.id, j, c, exp)
					}
				}
			}
			p.refresh(w.view)
			for _, c := range w.view.Cores {
				if err := queueTotalsErr(c); err != nil {
					t.Errorf("step %d: worker %d's selection view: %v", step, i, err)
				}
			}
			if !reflect.DeepEqual(w.view.Cores, want) {
				t.Errorf("step %d: worker %d's selection view is %v, want %v", step, i, w.view.Cores, want)
			}
			p.refresh(p.rescueView)
			if !reflect.DeepEqual(p.rescueView.Cores, want) {
				t.Errorf("step %d: the rescue view is %v, want %v", step, p.rescueView.Cores, want)
			}
		}
		prev = want
	}
}

// queueTotalsErr recomputes c's runqueue totals from its queue and
// reports any that c's accessors disagree with.
func queueTotalsErr(c *sched.Core) error {
	q := c.Queued()
	var sum, least int64
	uniform := true
	for _, t := range q {
		sum += t.Weight
		if least == 0 || t.Weight < least {
			least = t.Weight
		}
		uniform = uniform && t.Weight == q[0].Weight
	}
	if c.Current != nil {
		sum += c.Current.Weight
	}
	if c.WeightSum() != sum || c.MinQueuedWeight() != least || c.UniformQueue() != uniform {
		return fmt.Errorf("core %d reads WeightSum %d, MinQueuedWeight %d, UniformQueue %v; its queue gives %d, %d, %v",
			c.ID, c.WeightSum(), c.MinQueuedWeight(), c.UniformQueue(), sum, least, uniform)
	}
	return nil
}

func TestStealMovesVictimTailInOrder(t *testing.T) {
	// A three-task steal: the victim keeps its head, the first stolen task
	// is the one to run and the other two queue behind the thief's own,
	// all in submission order. In the wrapped case both queues' heads sit
	// near the end of their 8-slot buffers, so both runqueues wrap around
	// — and must neither reorder nor grow.
	steal3 := func() sched.Policy {
		return &sched.FuncPolicy{
			PolicyName: "steal3",
			LoadFn:     func(c *sched.Core) int64 { return int64(c.NThreads()) },
			FilterFn:   func(thief, stealee *sched.Core) bool { return stealee.NThreads()-thief.NThreads() >= 2 },
			CountFn:    func(_, _ *sched.Core) int { return 3 },
		}
	}
	for _, tc := range []struct {
		name          string
		thiefDrained  int // tasks the thief ran before the test's own
		victimDrained int // likewise for the victim
	}{
		{"flat", 0, 0},
		{"wrapped", 7, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPool(2, steal3, Options{}) // no goroutines: the test is the thief
			thief, victim := p.workers[1], p.workers[0]
			var ran []int
			submit := func(w *worker, id int) { w.push(func() { ran = append(ran, id) }) }
			for w, drained := range map[*worker]int{thief: tc.thiefDrained, victim: tc.victimDrained} {
				for range drained {
					submit(w, -1)
				}
				for range drained {
					w.popLocal()
				}
			}
			for id := 0; id < 6; id++ {
				submit(victim, id)
			}
			submit(thief, 10)
			submit(thief, 11)
			first := thief.stealWork()
			if first == nil {
				t.Fatal("the steal failed")
			}
			first()
			for _, w := range []*worker{thief, victim} {
				if got := w.qlen.Load(); got != int64(w.queue.n) {
					t.Errorf("worker %d publishes %d queued tasks, has %d", w.id, got, w.queue.n)
				}
				if len(w.queue.buf) != 8 {
					t.Errorf("worker %d's buffer grew to %d slots for at most 6 tasks", w.id, len(w.queue.buf))
				}
				for task := w.popLocal(); task != nil; task = w.popLocal() {
					task()
				}
			}
			if want := []int{3, 10, 11, 4, 5, 0, 1, 2}; !reflect.DeepEqual(ran, want) {
				t.Errorf("ran %v, want %v (stolen head, thief's queue, victim's queue)", ran, want)
			}
			if st := p.Stats(); st.Steals != 3 || st.StealFails != 0 {
				t.Errorf("Steals = %d, StealFails = %d, want 3 and 0", st.Steals, st.StealFails)
			}
		})
	}
}

func TestTaskQueueMatchesASlice(t *testing.T) {
	// A worker's pushes, pops and stolen tails against a slice, with
	// bursts past keptSlots: the ring keeps the order, clears what it
	// drops, reallocates only when full, and returns its buffer when it
	// drains after a burst; and after every mutator both sides publish
	// the model's length.
	rng := rand.New(rand.NewPCG(1, 2))
	p := newPool(2, delta2Factory, Options{}) // no goroutines: the test is both workers
	w, thief := p.workers[0], p.workers[1]
	q := &w.queue
	var model []int
	ran := -1
	task := func(id int) Task { return func() { ran = id } }
	idOf := func(t Task) int { t(); return ran }
	for op := 0; op < 20000; op++ {
		before, burst := len(q.buf), q.peak > keptSlots
		switch k := rng.IntN(10); {
		case op%5000 < 1500:
			w.push(task(op)) // a burst
			model = append(model, op)
		case k < 5:
			w.push(task(op))
			model = append(model, op)
		case k < 9:
			got := w.pop()
			if len(model) == 0 {
				if got != nil {
					t.Fatalf("op %d: pop of an empty queue returned a task", op)
				}
				continue
			}
			if id := idOf(got); id != model[0] {
				t.Fatalf("op %d: pop = %d, want %d", op, id, model[0])
			}
			model = model[1:]
		default:
			keep := rng.IntN(len(model) + 1)
			if keep < len(model) {
				if id := idOf(thief.stealTail(w, len(model)-keep)); id != model[keep] {
					t.Fatalf("op %d: the steal's first task is %d, want %d", op, id, model[keep])
				}
				rest := model[keep+1:]
				if got := thief.qlen.Load(); got != int64(len(rest)) || thief.queue.n != len(rest) {
					t.Fatalf("op %d: the thief publishes %d tasks and queues %d, want %d", op, got, thief.queue.n, len(rest))
				}
				for _, want := range rest {
					if id := idOf(thief.pop()); id != want {
						t.Fatalf("op %d: the thief queued %d, want %d", op, id, want)
					}
				}
			}
			model = model[:keep]
		}
		if got := w.qlen.Load(); q.n != len(model) || got != int64(len(model)) {
			t.Fatalf("op %d: %d tasks queued and %d published, want %d", op, q.n, got, len(model))
		}
		switch grown, returned := q.n-1 == before, q.n == 0 && burst; {
		case returned && (len(q.buf) != 0 || q.next != before):
			t.Fatalf("op %d: a drained %d-slot buffer left %d slots and a next size of %d", op, before, len(q.buf), q.next)
		case len(q.buf) != before && before != 0 && !grown && !returned:
			t.Fatalf("op %d: the buffer went from %d to %d slots with %d tasks", op, before, len(q.buf), q.n)
		case before == 0 && q.n == 1 && len(q.buf) != max(8, q.next):
			t.Fatalf("op %d: an empty queue allocated %d slots, not the %d it last needed", op, len(q.buf), q.next)
		}
	}
	for i, want := range model {
		if id := idOf(q.at(i)); id != want {
			t.Fatalf("task %d from the head is %d, want %d", i, id, want)
		}
	}
	for i := q.n; i < len(q.buf); i++ {
		if q.buf[q.slot(i)] != nil {
			t.Fatalf("free slot %d still holds a task", q.slot(i))
		}
	}
}

func TestStealClearsVictimTail(t *testing.T) {
	// The stolen closures must not stay reachable from the victim's array.
	p := newPool(2, delta2Factory, Options{})
	victim := p.workers[0]
	for i := 0; i < 4; i++ {
		victim.push(func() {})
	}
	if p.workers[1].stealWork() == nil {
		t.Fatal("the steal failed")
	}
	if freed := victim.queue.buf[victim.queue.slot(3)]; victim.queue.n != 3 || freed != nil {
		t.Errorf("victim keeps %d tasks and its freed slot is cleared = %v", victim.queue.n, freed == nil)
	}
}

// taggedPolicy is delta2 with a rescue rule, and a per-round cache that
// BeginRound writes and RescueTarget reads: the kind of instance state
// Factory's contract exists for.
type taggedPolicy struct {
	*policy.Delta2
	tag            int
	round          int // plain on purpose: the race detector watches it
	began, rescued atomic.Bool
}

var _ sched.Rescuer = (*taggedPolicy)(nil)

func (p *taggedPolicy) BeginRound(*sched.Machine) {
	p.round++
	p.began.Store(true)
}

func (p *taggedPolicy) RescueTarget(_ *sched.Core, candidates []*sched.Core) *sched.Core {
	p.rescued.Store(true)
	return candidates[p.round%len(candidates)]
}

func TestKillRescueUsesItsOwnPolicyInstance(t *testing.T) {
	var instances []*taggedPolicy // NewPool calls the factory from one goroutine
	p := NewPool(2, func() sched.Policy {
		tp := &taggedPolicy{Delta2: policy.NewDelta2(), tag: len(instances)}
		instances = append(instances, tp)
		return tp
	}, Options{})
	defer p.Close()
	balancer := p.workers[0].policy.(*taggedPolicy)
	for !balancer.began.Load() { // worker 0 has run the lock-free phase on its instance
		time.Sleep(time.Millisecond)
	}
	gate, started := make(chan struct{}), make(chan struct{})
	p.SubmitTo(0, func() { close(started); <-gate })
	<-started
	for i := 0; i < 40; i++ {
		p.SubmitTo(0, spin)
	}
	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	close(gate)
	p.Wait()
	if len(instances) != 3 {
		t.Errorf("a 2-worker pool built %d policy instances, want 3: one per worker and one for re-homing", len(instances))
	}
	if p.Stats().Rescued == 0 {
		t.Fatal("nothing was rescued: the test did not exercise the rescue rule")
	}
	for _, tp := range instances {
		if tp.began.Load() && tp.rescued.Load() {
			t.Errorf("policy instance %d both observed balancing rounds and re-homed orphans: two goroutines share it", tp.tag)
		}
	}
}

func TestKillWaitsForAStealInFlight(t *testing.T) {
	// A steal in flight holds its thief's runqueue lock while it decides
	// and moves, publishing the batch before it lets go. A kill of the
	// thief that lands meanwhile must wait for the batch and drain it,
	// not return first and strand it.
	batch := func() sched.Policy {
		return &sched.FuncPolicy{
			PolicyName: "batch-rescue",
			LoadFn:     func(c *sched.Core) int64 { return int64(c.NThreads()) },
			FilterFn:   func(thief, stealee *sched.Core) bool { return stealee.NThreads()-thief.NThreads() >= 2 },
			CountFn:    func(_, _ *sched.Core) int { return 3 },
			RescueFn:   func(_ *sched.Core, candidates []*sched.Core) *sched.Core { return candidates[0] },
		}
	}
	p := newPool(2, batch, Options{}) // no goroutines: the test is the thief
	w := p.workers[0]
	w.mu.Lock() // the steal is under way
	killed := make(chan error, 1)
	go func() { killed <- p.Kill(0) }()
	time.Sleep(20 * time.Millisecond)
	w.push(spin) // the stolen batch lands on the thief's queue
	w.push(spin)
	w.mu.Unlock()
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Orphaned != 0 || st.Rescued != 2 {
		t.Errorf("after the kill: Orphaned = %d, Rescued = %d, want 0 and 2", st.Orphaned, st.Rescued)
	}
}

func TestKillReviveLoopRunsEveryTaskOnce(t *testing.T) {
	// Faults land on both workers while a skewed batch drains: the views,
	// the rescue view and the policy instances are all in use at once.
	p := NewPool(2, rescueFactory, Options{})
	defer p.Close()
	const n = 5000
	ran := make([]atomic.Int32, n)
	var sum atomic.Int64
	for i := 0; i < n; i++ {
		p.SubmitTo(0, func() {
			ran[i].Add(1)
			sum.Add(int64(i))
			spin()
		})
	}
	faults := int64(0)
	for id := 0; p.Stats().Executed < n/2; id = 1 - id {
		faults += 2 // a kill and a revive, or the test fails
		if err := p.Kill(id); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
		if err := p.Revive(id); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond) // let the balancer work between faults
	}
	p.Wait() // both workers are back: the pool must drain
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
	if want := int64(n) * (n - 1) / 2; sum.Load() != want {
		t.Errorf("checksum %d, want %d", sum.Load(), want)
	}
	st := p.Stats()
	t.Logf("faults=%d rescued=%d steals=%d fails=%d", st.Faults, st.Rescued, st.Steals, st.StealFails)
	if st.Executed != n || st.Orphaned != 0 || st.Faults != faults || faults == 0 {
		t.Errorf("Executed = %d, Orphaned = %d, Faults = %d, want %d, 0 and %d (non-zero)", st.Executed, st.Orphaned, st.Faults, n, faults)
	}
}
