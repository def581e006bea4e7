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
// Views and who may touch them. A view is a sched.Machine of one model
// core per worker, laid out once at NewPool by Machine.Reset (IDs,
// nodes, groups); from then on fill overwrites only what changes — the
// offline flag, the queue and the running task — so a balancing round
// allocates nothing: the lock-free phase shares no state but the
// published counters, not even the allocator. Each worker owns a view
// and a policy instance: only that worker's goroutine, inside stealWork,
// reads or writes them. Step 3 re-fills the view's thief and victim
// cores from the locked runqueues and re-validates on them. Orphans are
// re-homed from other goroutines (the killer's, a submitter's) while the
// dead worker's goroutine may still be inside stealWork, so the pool has
// one rescue view and one more policy instance, touched only by the
// holder of faultMu, which serialises Kill, Revive and re-homing.
//
// The queue publishes itself. A worker's runqueue changes only through
// its mutators — push, pop and stealTail, each called with the queue's
// lock held — and each stores the new length in qlen once per call, so
// every length the lock-free phase reads is one some mutator published
// under that lock.
//
// One rule moves a task between two queues. A steal and an orphan's
// re-homing alike decide lock-free, lock both runqueues in ID order
// (lockPair), re-check the decision under the locks, then move. A
// worker's offline flag changes only with its runqueue lock held, so a
// Kill waits out a steal in flight on that worker's queue and then
// drains whatever the steal published.
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

// Factory builds the policy instances of a pool: n+1 for n workers, one
// for each worker's own balancing rounds and one for re-homing orphans;
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

	// Guarded by faultMu, which serializes Kill, Revive and rehome: one
	// caller of the policy's rescue rule at a time, on a view and an
	// instance the workers' own rounds never see.
	faultMu      sync.Mutex
	rescuePolicy sched.Policy
	rescueView   *sched.Machine

	executed   atomic.Int64
	steals     atomic.Int64
	stealFails atomic.Int64
	faults     atomic.Int64
	rescued    atomic.Int64
}

// worker is one executor lane.
type worker struct {
	id   int
	pool *Pool

	mu      sync.Mutex
	queue   taskQueue // changed only by push, pop and stealTail
	running atomic.Bool
	qlen    atomic.Int64 // queue.n as the last mutator left it, for lock-free selection
	offline atomic.Bool  // fail-stopped (Kill); executes and steals nothing; stored only with mu held

	// Owned by the worker's goroutine and touched only inside stealWork.
	policy sched.Policy
	view   *sched.Machine // selection view, one core per worker
}

// Options configures optional pool behaviour.
type Options struct {
	// Groups assigns workers to scheduling groups (defaults to all 0);
	// NewPool panics unless it is nil or has one entry per worker.
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
	p := &Pool{workers: make([]*worker, n)}
	for i := range p.workers {
		p.workers[i] = &worker{
			id: i, pool: p,
			policy: factory(), view: new(sched.Machine).Reset(n, opts.Groups),
		}
	}
	p.rescuePolicy, p.rescueView = factory(), new(sched.Machine).Reset(n, opts.Groups)
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
	w.push(t)
	offline := w.offline.Load()
	w.mu.Unlock()
	if offline {
		// Landed on a killed worker: the task is an orphan like the ones
		// the kill found, so it gets the same offer. The flag changes
		// only under w.mu, so either this read sees the kill or the
		// kill's drain sees the task.
		p.faultMu.Lock()
		defer p.faultMu.Unlock()
		p.rehome(w)
	}
}

// Wait blocks until every submitted task has executed.
func (p *Pool) Wait() { p.wg.Wait() }

// Kill fail-stops a worker: it finishes its in-flight task (a real
// goroutine cannot be preempted mid-call) and then executes nothing
// further. A steal in flight on its queue completes first; then the
// queue is re-homed where sched.Place sends it (the policy's rescue
// rule, sched.Rescuer); orphans the policy declines stay stranded on
// the offline queue — and keep Wait blocked — until Revive; a task
// submitted to a killed worker is placed the same way. Killing the last
// online worker is refused: a pool with no lanes can never drain.
func (p *Pool) Kill(id int) error {
	if id < 0 || id >= len(p.workers) {
		return fmt.Errorf("engine: Kill(%d) of a %d-worker pool", id, len(p.workers))
	}
	p.faultMu.Lock()
	defer p.faultMu.Unlock()
	w := p.workers[id]
	if w.offline.Load() {
		return fmt.Errorf("engine: worker %d is already offline", id)
	}
	online := 0
	for _, ow := range p.workers {
		if !ow.offline.Load() {
			online++
		}
	}
	if online == 1 {
		return fmt.Errorf("engine: refusing to kill worker %d, the last online worker", id)
	}
	w.setOffline(true)
	p.faults.Add(1)
	p.rehome(w)
	return nil
}

// Revive brings a killed worker back (hotplug add): it resumes running
// whatever is still stranded on its queue.
func (p *Pool) Revive(id int) error {
	if id < 0 || id >= len(p.workers) {
		return fmt.Errorf("engine: Revive(%d) of a %d-worker pool", id, len(p.workers))
	}
	p.faultMu.Lock()
	defer p.faultMu.Unlock()
	w := p.workers[id]
	if !w.offline.Load() {
		return fmt.Errorf("engine: worker %d is not offline", id)
	}
	w.setOffline(false)
	p.faults.Add(1)
	return nil
}

// setOffline flips w's fault state under its runqueue lock: a steal in
// flight on w's queue finishes, and publishes what it moved, before the
// flip, and one that locks the queue after it sees the flip when it
// re-validates. The caller holds faultMu.
func (w *worker) setOffline(offline bool) {
	w.mu.Lock()
	w.offline.Store(offline)
	w.mu.Unlock()
}

// rehome drains the dead worker w's queue where sched.Place sends it,
// one orphan at a time and the way stealWork moves a batch: decide the
// adopter lock-free on the rescue view (so a rule that breaks its
// contract panics with nothing moved), lock both runqueues, re-check
// that w is still offline with a task queued and that the adopter is
// online, then move w's head task. The first orphan Place leaves where
// it is ends the drain and strands the rest: the policy declined or has
// no rescue rule. The caller holds faultMu.
func (p *Pool) rehome(w *worker) {
	for w.qlen.Load() > 0 {
		p.refresh(p.rescueView)
		target := sched.Place(p.rescuePolicy, p.rescueView, w.id)
		if target.ID == w.id {
			return
		}
		tw := p.workers[target.ID]
		lockPair(w, tw)
		if !w.offline.Load() || w.queue.n == 0 || tw.offline.Load() {
			unlockPair(w, tw)
			return
		}
		tw.push(w.pop())
		unlockPair(w, tw)
		p.rescued.Add(1)
	}
}

// Close stops the workers after the queues drain. The pool cannot be
// reused.
func (p *Pool) Close() {
	p.closed.Store(true)
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	// Counters tallies steals and faults (Faults counts the Kill and
	// Revive calls that succeeded); the pool balances on idle, not in
	// rounds, so Rounds stays zero.
	sched.Counters
	// Executed counts completed tasks.
	Executed int64
}

// Stats returns the current counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		Counters: sched.Counters{
			Steals:     p.steals.Load(),
			StealFails: p.stealFails.Load(),
			Faults:     p.faults.Load(),
			Rescued:    p.rescued.Load(),
		},
		Executed: p.executed.Load(),
	}
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
	return w.pop()
}

// push appends t to w's runqueue and publishes the new length. The
// caller holds w.mu.
func (w *worker) push(t Task) {
	w.queue.pushBack(t)
	w.qlen.Store(int64(w.queue.n))
}

// pop removes and returns the head of w's runqueue, nil if it is empty,
// and publishes the new length. The caller holds w.mu.
func (w *worker) pop() Task {
	t := w.queue.popFront()
	w.qlen.Store(int64(w.queue.n))
	return t
}

// stealTail moves the last n of victim's tasks, 1 <= n <= its queue
// length, to w and publishes both lengths once. The first moved task is
// returned to run now; the rest queue behind w's own, in order, so the
// victim keeps its head (oldest) tasks. The caller holds both runqueue
// locks (lockPair).
func (w *worker) stealTail(victim *worker, n int) Task {
	cut := victim.queue.n - n
	t := victim.queue.at(cut)
	for i := cut + 1; i < victim.queue.n; i++ {
		w.queue.pushBack(victim.queue.at(i))
	}
	victim.queue.truncate(cut)
	victim.qlen.Store(int64(cut))
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

	// Step 3: lock both runqueues, then re-validate the optimistic
	// decision against live state.
	lockPair(w, victim)
	defer unlockPair(w, victim)

	// Either side may have been killed, robbed or fed since selection;
	// the shared step-3 decision re-validates on the pair re-filled from
	// the locked runqueues. The view carries placeholders, so a picked
	// task is just one from the tail, and n never exceeds the victim's
	// queue.
	thief, stealee := w.view.Cores[w.id], w.view.Cores[victim.id]
	w.fill(thief, w.queue.n)
	victim.fill(stealee, victim.queue.n)
	n, _, reason := sched.DecideSteal(w.policy, thief, stealee)
	if reason != sched.FailNone {
		w.pool.stealFails.Add(1)
		return nil
	}
	w.pool.steals.Add(int64(n))
	return w.stealTail(victim, n)
}

// lockPair locks two workers' runqueues in ID order: the one order every
// two-queue move takes them in, so no two moves deadlock.
func lockPair(a, b *worker) {
	if b.id < a.id {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock()
}

// unlockPair releases what lockPair took.
func unlockPair(a, b *worker) {
	a.mu.Unlock()
	b.mu.Unlock()
}

// refresh overwrites view — a machine of one model core per worker that
// the caller owns — from atomically published counters only: the
// lock-free observation of the pool.
func (p *Pool) refresh(view *sched.Machine) {
	for i, w := range p.workers {
		w.fill(view.Cores[i], int(w.qlen.Load()))
	}
}

// fill overwrites everything of w's core c that changes at run time
// with the model's view of w holding qlen queued tasks — its offline
// flag, queue and running task — leaving the layout Reset gave it. The
// runqueue aliases a shared immutable array of placeholder tasks, so
// the policy sees correct lengths and default weights without copying
// queues or scanning them. qlen is the published counter for a
// lock-free view, or w.queue.n with w.mu held for step 3's pair.
func (w *worker) fill(c *sched.Core, qlen int) {
	c.Offline = w.offline.Load()
	c.ShareDefaultQueue(placeholders(qlen))
	c.Current = nil
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
// Taking the head and cutting off a stolen tail move indices, never the
// buffer, so a busy worker allocates only when its backlog outgrows the
// buffer. A queue that drains after holding a burst — more than
// keptSlots tasks since its buffer was allocated — returns the buffer
// and remembers its size: an idle worker does not pin a burst's memory,
// and the next burst allocates the buffer the last one needed in one
// step instead of regrowing it by doublings.
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
