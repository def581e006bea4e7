// Package engine is a concurrent work-stealing executor that runs the
// paper's three-step balancing protocol under real Go concurrency: one
// goroutine per worker, a locked per-worker runqueue, and an optimistic
// balancer — the selection phase (filter + choose) reads only atomically
// published load counters without taking any lock, and the stealing phase
// locks exactly the two runqueues involved and re-validates the filter
// before migrating work (Listing 1 line 12).
//
// It is the repository's stand-in for the paper's kernel scheduling
// class: where internal/verify proves the protocol's work conservation on
// the model, this package demonstrates the same protocol running
// race-detector-clean with real lock contention and stale observations.
// Unlike the kernel's periodic 4ms rounds, the executor balances when a
// worker runs out of local work (steal-on-idle), the standard adaptation
// for userspace work-stealing runtimes.
//
// The package owns mechanism only — goroutines, locks, atomics, moving
// closures between queues. Every decision (whom to rob, whether the
// optimistic selection still holds and how much to take, where an orphan
// of a killed worker or a task submitted to one lands) is
// internal/sched's Select, DecideSteal and Place, called on views built
// from the workers' counters: the verified code is the executed code.
//
// Views and who may touch them. The views are built once, at NewPool, and
// overwritten in place from then on, so a balancing round allocates
// nothing — the lock-free phase shares no state but the published
// counters, not even the allocator. Each worker owns a selection view
// (one model core per worker), the two live views of step 3 and a policy
// instance: only that worker's goroutine, inside stealWork, reads or
// writes them. Orphans are re-homed from other goroutines (the killer's,
// a submitter's) while the dead worker's goroutine may still be inside
// stealWork, so each worker also has a rescue view and a second policy
// instance that only the holder of its rescueMu touches.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// Task is a unit of work.
type Task func()

// Factory builds the policy instances of a pool, two per worker (one for
// the worker's own balancing rounds, one for re-homing its orphans);
// instances of a stateful policy must not be shared because it may carry
// per-round caches. A stateless one — a DSL-compiled policy without a
// random chooser — may be one shared instance.
type Factory func() sched.Policy

// Pool is the work-stealing executor.
type Pool struct {
	workers []*worker
	closed  atomic.Bool
	inflt   atomic.Int64 // submitted but not finished tasks
	wg      sync.WaitGroup

	executed   atomic.Int64
	steals     atomic.Int64
	stealFails atomic.Int64
	kills      atomic.Int64
	revives    atomic.Int64
	rescued    atomic.Int64
}

// worker is one executor lane.
type worker struct {
	id    int
	group int
	pool  *Pool

	mu      sync.Mutex
	queue   taskQueue
	running atomic.Bool
	qlen    atomic.Int64 // published queue length for lock-free selection
	offline atomic.Bool  // fail-stopped (Kill); executes and steals nothing

	// Owned by the worker's goroutine and touched only inside stealWork.
	policy                sched.Policy
	view                  *sched.Machine // lock-free selection view, one core per worker
	liveThief, liveVictim sched.Core     // step 3's views of the two locked runqueues

	// Guarded by rescueMu, which serializes rehome: one caller of the
	// policy's rescue rule at a time, on a view and an instance the
	// worker's own rounds never see.
	rescueMu     sync.Mutex
	rescuePolicy sched.Policy
	rescueView   *sched.Machine
}

// Options configures optional pool behaviour.
type Options struct {
	// Groups assigns workers to scheduling groups (defaults to all 0).
	Groups []int
}

// NewPool starts n workers using policies from factory.
func NewPool(n int, factory Factory, opts Options) *Pool {
	p := newPool(n, factory, opts)
	for _, w := range p.workers {
		go w.run()
	}
	return p
}

// newPool builds the pool NewPool starts: the workers with everything
// they will ever select on, and no goroutine yet.
func newPool(n int, factory Factory, opts Options) *Pool {
	if n <= 0 {
		panic(fmt.Sprintf("engine: NewPool(%d)", n))
	}
	if factory == nil {
		panic("engine: nil policy factory")
	}
	if opts.Groups != nil && len(opts.Groups) != n {
		panic(fmt.Sprintf("engine: %d groups for %d workers", len(opts.Groups), n))
	}
	p := &Pool{workers: make([]*worker, n)}
	for i := range p.workers {
		g := 0
		if opts.Groups != nil {
			g = opts.Groups[i]
		}
		p.workers[i] = &worker{
			id: i, group: g, pool: p,
			policy: factory(), view: sched.NewMachine(n),
			rescuePolicy: factory(), rescueView: sched.NewMachine(n),
		}
	}
	return p
}

// SubmitTo enqueues a task on a specific worker — how the benchmarks
// create the skewed placements the balancer must fix.
func (p *Pool) SubmitTo(id int, t Task) {
	if t == nil {
		panic("engine: SubmitTo(nil)")
	}
	if p.closed.Load() {
		panic("engine: SubmitTo on closed pool")
	}
	w := p.workers[id]
	p.inflt.Add(1)
	p.wg.Add(1)
	w.mu.Lock()
	w.queue.pushBack(t)
	w.qlen.Store(int64(w.queue.n))
	w.mu.Unlock()
	if w.offline.Load() {
		// Landed on a killed worker: the task is an orphan like the ones
		// the kill found, so it gets the same offer. Kill sets offline
		// before it drains, so whichever of the two runs last sees it.
		w.rehome()
	}
}

// Wait blocks until every submitted task has executed.
func (p *Pool) Wait() { p.wg.Wait() }

// Kill fail-stops a worker: it finishes its in-flight task (a real
// goroutine cannot be preempted mid-call) and then executes nothing
// further. Its queue is immediately re-homed where sched.Place sends it
// (the policy's rescue rule, sched.Rescuer); orphans the policy declines
// stay stranded on the offline queue — and keep Wait blocked — until
// Revive; a task submitted to a killed worker is placed the same way.
// Killing the last online worker is refused: a pool with no lanes can
// never drain.
func (p *Pool) Kill(id int) error {
	if id < 0 || id >= len(p.workers) {
		return fmt.Errorf("engine: Kill(%d) of a %d-worker pool", id, len(p.workers))
	}
	w := p.workers[id]
	if !w.offline.CompareAndSwap(false, true) {
		return fmt.Errorf("engine: worker %d is already offline", id)
	}
	online := 0
	for _, ow := range p.workers {
		if !ow.offline.Load() {
			online++
		}
	}
	if online == 0 {
		w.offline.Store(false)
		return fmt.Errorf("engine: refusing to kill worker %d, the last online worker", id)
	}
	p.kills.Add(1)
	w.rehome()
	return nil
}

// Revive brings a killed worker back (hotplug add): it resumes running
// whatever is still stranded on its queue.
func (p *Pool) Revive(id int) error {
	if id < 0 || id >= len(p.workers) {
		return fmt.Errorf("engine: Revive(%d) of a %d-worker pool", id, len(p.workers))
	}
	if !p.workers[id].offline.CompareAndSwap(true, false) {
		return fmt.Errorf("engine: worker %d is not offline", id)
	}
	p.revives.Add(1)
	return nil
}

// rehome drains the dead worker's queue where sched.Place sends it. Each
// orphan's adopter is decided (on the rescue view refreshed lock-free)
// before the orphan leaves the queue, so a rule that breaks its contract
// panics with nothing lost; the orphan is then popped under the dead
// worker's lock and appended under the adopter's — never holding both,
// so it cannot deadlock against concurrent steals. The first orphan
// Place leaves where it is ends the drain and strands the rest: the
// policy declined or has no rescue rule, or the worker is back online.
func (w *worker) rehome() {
	w.rescueMu.Lock()
	defer w.rescueMu.Unlock()
	for w.qlen.Load() > 0 {
		w.pool.refresh(w.rescueView)
		target := sched.Place(w.rescuePolicy, w.rescueView, w.id)
		if target.ID == w.id {
			return
		}
		t := w.popLocal()
		if t == nil {
			return
		}
		tw := w.pool.workers[target.ID]
		tw.mu.Lock()
		// Publish the orphan before checking the adopter, as SubmitTo
		// does: a kill that lands after the check drains it, and one that
		// landed before is seen here.
		tw.queue.pushBack(t)
		tw.qlen.Store(int64(tw.queue.n))
		if tw.offline.Load() {
			// The adopter was itself killed in between: take the orphan
			// back and re-select.
			tw.queue.truncate(tw.queue.n - 1)
			tw.qlen.Store(int64(tw.queue.n))
			tw.mu.Unlock()
			w.mu.Lock()
			w.queue.pushFront(t)
			w.qlen.Store(int64(w.queue.n))
			w.mu.Unlock()
			continue
		}
		tw.mu.Unlock()
		w.pool.rescued.Add(1)
	}
}

// Close stops the workers after the queues drain. The pool cannot be
// reused.
func (p *Pool) Close() {
	p.closed.Store(true)
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	// Counters tallies steals and faults (Faults = Kills + Revives);
	// the pool balances on idle, not in rounds, so Rounds stays zero.
	sched.Counters
	// Executed counts completed tasks.
	Executed int64
	// Kills and Revives count the applied fault events by kind.
	Kills, Revives int64
}

// Stats returns the current counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		Counters: sched.Counters{
			Steals:     p.steals.Load(),
			StealFails: p.stealFails.Load(),
			Rescued:    p.rescued.Load(),
		},
		Executed: p.executed.Load(),
		Kills:    p.kills.Load(),
		Revives:  p.revives.Load(),
	}
	st.Faults = st.Kills + st.Revives
	for _, w := range p.workers {
		if w.offline.Load() {
			st.Orphaned += w.qlen.Load()
		}
	}
	return st
}

// idleSleep is an idle worker's poll interval.
const idleSleep = 50 * time.Microsecond

// run is the worker main loop.
func (w *worker) run() {
	for {
		if w.offline.Load() {
			// Fail-stopped: execute nothing until Revive, but still honor
			// shutdown once every submitted task has drained elsewhere.
			if w.pool.closed.Load() && w.pool.inflt.Load() == 0 {
				return
			}
			time.Sleep(idleSleep)
			continue
		}
		t := w.popLocal()
		if t == nil {
			t = w.stealWork()
		}
		if t == nil {
			if w.pool.closed.Load() && w.pool.inflt.Load() == 0 {
				return
			}
			time.Sleep(idleSleep)
			continue
		}
		w.running.Store(true)
		t()
		w.running.Store(false)
		w.pool.executed.Add(1)
		w.pool.inflt.Add(-1)
		w.pool.wg.Done()
	}
}

// popLocal takes the head of the worker's own queue.
func (w *worker) popLocal() Task {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := w.queue.popFront()
	w.qlen.Store(int64(w.queue.n))
	return t
}

// stealWork runs one three-step balancing round on behalf of this worker:
// lock-free selection over published counters, then a locked re-validated
// steal from the chosen victim. It returns one task to run immediately
// (the rest of the stolen batch goes on the local queue).
func (w *worker) stealWork() Task {
	// Step 1+2: selection against the worker's view, refreshed lock-free.
	w.pool.refresh(w.view)
	att := sched.Select(w.policy, w.view, w.id)
	if att.Victim < 0 {
		return nil
	}
	victim := w.pool.workers[att.Victim]

	// Step 3: lock both runqueues in ID order (deadlock freedom), then
	// re-validate the optimistic decision against live state.
	first, second := w, victim
	if victim.id < w.id {
		first, second = victim, w
	}
	first.mu.Lock()
	second.mu.Lock()
	defer second.mu.Unlock()
	defer first.mu.Unlock()

	// Either side may have been killed, robbed or fed since selection;
	// the shared step-3 decision re-validates on the live views. The
	// views carry placeholders, so a picked task is just one from the
	// tail, and n never exceeds the victim's queue.
	w.fill(&w.liveThief, w.queue.n)
	victim.fill(&w.liveVictim, victim.queue.n)
	n, _, reason := sched.DecideSteal(w.policy, &w.liveThief, &w.liveVictim)
	if reason != sched.FailNone {
		w.pool.stealFails.Add(1)
		return nil
	}
	// Transfer from the victim's tail, keeping its head (oldest) local:
	// the first stolen task runs now, the rest queue behind the thief's.
	cut := victim.queue.n - n
	t := victim.queue.at(cut)
	for i := cut + 1; i < victim.queue.n; i++ {
		w.queue.pushBack(victim.queue.at(i))
	}
	victim.queue.truncate(cut)
	victim.qlen.Store(int64(cut))
	w.qlen.Store(int64(w.queue.n))
	w.pool.steals.Add(int64(n))
	return t
}

// refresh overwrites view — a machine of one model core per worker that
// the caller owns — from atomically published counters only: the
// lock-free observation of the pool.
func (p *Pool) refresh(view *sched.Machine) {
	for i, w := range p.workers {
		w.fill(view.Cores[i], int(w.qlen.Load()))
	}
}

// fill overwrites c, wholesale, with the model's view of w holding qlen
// queued tasks: nothing of what c showed before survives. The runqueue
// aliases a shared immutable array of placeholder tasks, so the policy
// sees correct lengths and default weights without copying queues or
// scanning them. qlen is the published counter for a lock-free view, or
// w.queue.n with w.mu held for a live one.
func (w *worker) fill(c *sched.Core, qlen int) {
	*c = sched.Core{ID: w.id, Group: w.group, Node: w.group, Offline: w.offline.Load()}
	c.ShareDefaultQueue(placeholders(qlen))
	if w.running.Load() {
		c.Current = placeholderTask
	}
}

// placeholderTask is the shared unit-weight stand-in for executor tasks
// in policy views.
var placeholderTask = sched.NewTask(-1)

// placeholderPool is an immutable, monotonically grown slice of pointers
// to placeholderTask; placeholders(n) returns a length-n prefix without
// allocating in the common case.
var placeholderPool atomic.Value // []*sched.Task

var placeholderMu sync.Mutex

func placeholders(n int) []*sched.Task {
	if n == 0 {
		return nil
	}
	cur, _ := placeholderPool.Load().([]*sched.Task)
	if n <= len(cur) {
		return cur[:n]
	}
	placeholderMu.Lock()
	defer placeholderMu.Unlock()
	cur, _ = placeholderPool.Load().([]*sched.Task)
	if n <= len(cur) {
		return cur[:n]
	}
	grown := make([]*sched.Task, n*2)
	for i := range grown {
		grown[i] = placeholderTask
	}
	placeholderPool.Store(grown)
	return grown[:n]
}

// taskQueue is a worker's runqueue: a ring over a power-of-two buffer.
// Taking the head, cutting off a stolen tail and putting an orphan back
// at the head move indices, never the buffer, so a busy worker allocates
// only when its backlog outgrows the buffer. A queue that drains after
// holding a burst — more than keptSlots tasks since its buffer was
// allocated — returns the buffer and remembers its size: an idle worker
// does not pin a burst's memory, and the next burst allocates the buffer
// the last one needed in one step instead of regrowing it by doublings.
type taskQueue struct {
	buf  []Task
	head int // buf index of the head (oldest) task
	n    int // queued tasks
	peak int // the most tasks queued since buf was allocated
	next int // the buffer an empty queue allocates: the last one returned
}

// keptSlots is the largest backlog a drained queue keeps its buffer
// after.
const keptSlots = 1024

// slot is the buf index of the i-th task from the head.
func (q *taskQueue) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// at returns the i-th task from the head.
func (q *taskQueue) at(i int) Task { return q.buf[q.slot(i)] }

// makeRoom grows a full buffer, laying the tasks out from index 0.
func (q *taskQueue) makeRoom() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]Task, max(8, 2*len(q.buf), q.next))
	for i := range q.n {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

func (q *taskQueue) pushBack(t Task) {
	q.makeRoom()
	q.buf[q.slot(q.n)] = t
	q.n++
	q.peak = max(q.peak, q.n)
}

func (q *taskQueue) pushFront(t Task) {
	q.makeRoom()
	q.head = q.slot(len(q.buf) - 1)
	q.buf[q.head] = t
	q.n++
	q.peak = max(q.peak, q.n)
}

// popFront removes and returns the head task, or nil if q is empty.
func (q *taskQueue) popFront() Task {
	if q.n == 0 {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = q.slot(1)
	q.n--
	q.drained()
	return t
}

// truncate keeps the first n tasks, clearing the slots of the rest so
// their closures are not kept reachable.
func (q *taskQueue) truncate(n int) {
	for i := n; i < q.n; i++ {
		q.buf[q.slot(i)] = nil
	}
	q.n = n
	q.drained()
}

// drained returns an emptied queue's buffer if it held a burst.
func (q *taskQueue) drained() {
	if q.n == 0 && q.peak > keptSlots {
		q.buf, q.head, q.peak, q.next = nil, 0, 0, len(q.buf)
	}
}
