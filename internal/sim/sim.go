// Package sim is a deterministic discrete-event simulator of a multicore
// machine driven by the paper's scheduler model: per-core runqueues,
// round-robin preemption within a core, task lifecycle
// (spawn/run/block/wake/exit), and periodic load-balancing rounds
// executing the three-step Filter/Choose/Steal protocol — by default in
// the optimistic concurrent mode (stale selections, serialized steals in
// a random order).
//
// The simulator substitutes for the paper's Linux testbed: it is where
// the §1 motivation experiments (wasted cores under the CFS group-
// imbalance bug) are reproduced, with virtual time standing in for
// wall-clock time. One tick is conventionally 1µs, making the default
// 4000-tick balance period the paper's 4ms CFS interval.
//
// The package owns mechanism only — the event queue, virtual time, task
// lifecycle and accounting. Balancing rounds, idle steals and fail/revive
// events are internal/sched's round executors, Select/Steal and
// Machine.ApplyFault run on the simulated machine, not re-implemented
// here; where a spawned or woken task lands is sched.Place's decision,
// so one bound for an offline core is rescued or stranded exactly like
// an orphan of the fault.
//
// Storage contract. Nothing scheduled is individually allocated. The
// dynamic events — slice ends, wakes, balance ticks, faults, a
// handful at a time — are plain values in a heap slice: post and the
// handlers pass them by value. Arrivals, which a workload posts up
// front by the thousand, are values in fixed-size chunks kept in
// (time, seq) order and merged with the heap as they come due; a
// record never moves to a new array, and a fired one is zeroed, so
// the task alone holds its behavior. Task state lives in a
// sched.Slab indexed by task ID — the simulated machine hands out IDs
// 0, 1, 2, … and nothing else spawns on it — so a *taskState stays
// valid until the next Reset, which hands the slab, zeroed, to the next
// run; an exited task is a status, not a deletion. Each state keeps its
// *sched.Task, which is equally stable: the simulated machine is kept
// across runs and rebuilt only by Reset (sched.Machine.Reset, which
// reuses its cores, runqueues and spawn slab), never by a CopyFrom or
// SetFromSpec.
// Occupancy — how many cores are idle and how many overloaded, the
// input of the wasted-cores tracker — is kept as counts over a class
// per core, and after an event only the cores it touched are
// reclassified: the core startIfIdle runs on and the victim of an
// idle steal, or every core after a round or a fault.
package sim

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// RoundMode selects how balancing rounds execute.
type RoundMode int8

const (
	// RoundConcurrent runs rounds optimistically: all cores select
	// against the round-start state, steals serialize in a random
	// order (the default; matches §3.1).
	RoundConcurrent RoundMode = iota
	// RoundSequential runs rounds in the §4.2 no-overlap mode.
	RoundSequential
)

// Config parameterizes a simulation.
type Config struct {
	// Cores is the machine width. Required.
	Cores int
	// Policy is the balancing policy. Required.
	Policy sched.Policy
	// Groups optionally assigns cores to scheduling groups (NUMA nodes).
	Groups []int
	// BalancePeriod is the tick interval between rounds (default 4000).
	BalancePeriod int64
	// Quantum is the preemption timeslice (default 1000).
	Quantum int64
	// Mode selects concurrent (default) or sequential rounds.
	Mode RoundMode
	// Seed drives the deterministic RNG (default 1).
	Seed uint64
	// Ring, when non-nil, receives trace events.
	Ring *trace.Ring
	// IdleBalance makes a core that runs out of work immediately attempt
	// one three-step steal instead of waiting for the next periodic
	// round — CFS's idle balancing, and the lever for the "reactivity"
	// property the paper leaves as future work. Work conservation does
	// not depend on it; the inter-round wasted time does.
	IdleBalance bool
}

// Simulator is the discrete-event engine. Create with New (or Reset a
// used one), populate with SpawnAt, drive with Run.
type Simulator struct {
	cfg   Config
	m     *sched.Machine
	rng   *RNG
	clock int64
	seq   uint64
	q     eventQueue
	tasks sched.Slab[taskState] // indexed by task ID
	order []int                 // handleBalance's steal order, redrawn every round

	// measurement
	counters    sched.Counters // Orphaned is read off the machine at snapshot
	completions int64
	preemptions int64
	latency     *metrics.Histogram
	waitTime    *metrics.Histogram
	violations  *metrics.ViolationTracker

	// occupancy, kept for observe: each core's class at its last
	// recount and how many cores are in each class. Only the cores
	// touched since the last observe are recounted — all of them when
	// recountAll is set (a round or fault moved work machine-wide, or
	// the fixed-capacity dirty list overflowed). seenIdle and
	// seenViolating are what the violation tracker last saw.
	class         []coreClass
	nClass        [numClasses]int
	dirty         []int
	recountAll    bool
	seenIdle      int
	seenViolating bool
}

// coreClass is what a core adds to the occupancy counts.
type coreClass int8

const (
	classBusy coreClass = iota // neither idle capacity nor overloaded
	classIdle
	// classOver is an online core with two or more threads, or an
	// offline one with work stranded on it.
	classOver
	numClasses
)

// dirtyCap bounds the dirty list: an event outside a round or fault
// touches at most a core and the victim of its idle steal.
const dirtyCap = 8

type taskStatus int8

const (
	statusPending taskStatus = iota
	statusReady
	statusRunning
	statusBlocked
	statusExited
)

type taskState struct {
	id         int64
	task       *sched.Task // the model's task: on a runqueue, current, or parked here while blocked
	behavior   Behavior
	status     taskStatus
	action     Action
	remaining  int64
	sliceStart int64
	runSeq     uint64
	lastCore   int // where the task last started; read only to place its wake
	arrival    int64
	readySince int64
}

// New builds a simulator. Panics on invalid configuration — a config is
// code, not input.
func New(cfg Config) *Simulator {
	s := new(Simulator)
	s.Reset(cfg)
	return s
}

// Reset readies s for a new run under cfg, exactly as New(cfg) would
// build it, but on the storage its last run grew: the machine (reset to
// cfg's cores and groups, keeping its cores, runqueues and spawned
// tasks' storage), the task slab, the arrival chunks, the live-event
// heap and the per-core order, class and dirty slices survive a Reset.
// Only the slab entries the last run used are cleared, so a simulator
// that once ran a long workload costs a short one nothing extra.
// Everything else is new — the RNG, the violation tracker and the
// histograms — so a Stats taken before the Reset, its Latency and
// WaitTime included, keeps describing the run it came from. Panics on
// invalid configuration, as New does.
func (s *Simulator) Reset(cfg Config) {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("sim: %d cores", cfg.Cores))
	}
	if cfg.Policy == nil {
		panic("sim: nil policy")
	}
	if cfg.BalancePeriod <= 0 {
		cfg.BalancePeriod = 4000
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 1000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m := s.m
	if m == nil {
		m = new(sched.Machine)
	}
	m.Reset(cfg.Cores, cfg.Groups) // panics unless Groups is nil or one per core
	s.tasks.Reset()
	s.q.reset()
	*s = Simulator{
		cfg:        cfg,
		m:          m,
		rng:        NewRNG(cfg.Seed),
		q:          s.q,
		tasks:      s.tasks,
		order:      slices.Grow(s.order[:0], cfg.Cores)[:cfg.Cores],
		latency:    metrics.NewHistogram(32),
		waitTime:   metrics.NewHistogram(32),
		violations: metrics.NewViolationTracker(0),
		class:      slices.Grow(s.class[:0], cfg.Cores)[:cfg.Cores],
		dirty:      slices.Grow(s.dirty[:0], dirtyCap),
		recountAll: true,
	}
	clear(s.class)
	s.nClass[classBusy] = cfg.Cores
	s.post(event{time: cfg.BalancePeriod, kind: evBalance})
}

// state returns the slab entry of task id, which must have been spawned.
func (s *Simulator) state(id int64) *taskState { return s.tasks.At(int(id)) }

// Machine exposes the simulated machine for inspection (tests, metrics).
// Callers must not mutate it; a Reset rebuilds it in place.
func (s *Simulator) Machine() *sched.Machine { return s.m }

// Clock returns the current virtual time.
func (s *Simulator) Clock() int64 { return s.clock }

// RNG returns the simulation's deterministic random stream, shared with
// workload generators so a single seed fixes the whole run.
func (s *Simulator) RNG() *RNG { return s.rng }

// SpawnAt schedules a task arrival: at time t, a task with the given
// weight and behavior appears on core's runqueue — or, if core is
// offline by then, wherever sched.Place sends it. Like every post, it
// fires after whatever is already scheduled for time t.
func (s *Simulator) SpawnAt(t int64, core int, weight int64, b Behavior) {
	if core < 0 || core >= s.cfg.Cores {
		panic(fmt.Sprintf("sim: SpawnAt on core %d of %d", core, s.cfg.Cores))
	}
	if b == nil {
		panic("sim: SpawnAt with nil behavior")
	}
	if t < s.clock {
		panic(fmt.Sprintf("sim: SpawnAt(%d) in the past (clock %d)", t, s.clock))
	}
	s.seq++
	s.q.pushArrival(arrival{time: t, seq: s.seq, weight: weight, behavior: b, core: core})
}

// FailAt schedules a fail-stop fault: at time t, the core goes offline.
// Whatever it was running is preempted (the task keeps its unfinished
// work) and joins the core's runqueue; the queue is then re-homed
// through the policy's rescue rule when it has one, or stranded on the
// offline core until a ReviveAt. An event the model refuses when it
// fires (sched.Machine.ApplyFault: the core is already offline, or is
// the last one online) is a no-op.
func (s *Simulator) FailAt(t int64, core int) { s.postFault("FailAt", evFail, t, core) }

// ReviveAt schedules a hotplug recovery: at time t, the core rejoins
// and resumes running whatever is still queued on it.
func (s *Simulator) ReviveAt(t int64, core int) { s.postFault("ReviveAt", evRevive, t, core) }

func (s *Simulator) postFault(op string, kind eventKind, t int64, core int) {
	if core < 0 || core >= s.cfg.Cores {
		panic(fmt.Sprintf("sim: %s on core %d of %d", op, core, s.cfg.Cores))
	}
	if t < s.clock {
		panic(fmt.Sprintf("sim: %s(%d) in the past (clock %d)", op, t, s.clock))
	}
	s.post(event{time: t, kind: kind, core: int32(core)})
}

func (s *Simulator) post(e event) {
	s.seq++
	e.seq = s.seq
	s.q.push(e)
}

func (s *Simulator) emit(kind trace.Kind, core int, task int64, aux int64) {
	s.cfg.Ring.Emit(trace.Event{Time: s.clock, Kind: kind, Core: core, Task: task, Aux: aux})
}

// Run processes events until the virtual clock reaches `until`, then
// returns the accumulated statistics. Run may be called repeatedly with
// increasing horizons.
func (s *Simulator) Run(until int64) Stats {
	st, _ := s.RunContext(context.Background(), until)
	return st
}

// RunContext is Run with cooperative cancellation: the event loop
// checks ctx every 256 events and stops early — without advancing the
// clock to the horizon or emitting an artificial final observation —
// returning the statistics at the stop point alongside ctx's error.
func (s *Simulator) RunContext(ctx context.Context, until int64) (Stats, error) {
	for n := 0; s.q.peekTime() <= until; n++ {
		if n%256 == 0 && ctx.Err() != nil {
			return s.snapshot(), ctx.Err()
		}
		e, a, isArrival := s.q.pop()
		if isArrival {
			s.clock = a.time
			s.handleSpawn(&a)
		} else {
			s.clock = e.time
			switch e.kind {
			case evSliceEnd:
				s.handleSliceEnd(e)
			case evWake:
				s.handleWake(e)
			case evBalance:
				s.handleBalance()
			case evFail, evRevive:
				s.handleFault(e)
			}
		}
		s.observe()
	}
	s.clock = until
	s.observe()
	return s.snapshot(), nil
}

// observe recounts the touched cores and feeds the violation tracker
// whenever the occupancy it tracks changed. Skipping an unchanged
// observation is exact: the tracker integrates integer steps.
func (s *Simulator) observe() {
	if s.recountAll {
		for id := range s.class {
			s.recount(id)
		}
		s.recountAll = false
	} else {
		for _, id := range s.dirty {
			s.recount(id)
		}
	}
	s.dirty = s.dirty[:0]
	idle, over := s.nClass[classIdle], s.nClass[classOver] > 0
	violating := idle > 0 && over
	if violating {
		s.emit(trace.KindViolation, -1, -1, int64(idle))
	}
	if idle != s.seenIdle || violating != s.seenViolating {
		s.seenIdle, s.seenViolating = idle, violating
		s.violations.Observe(s.clock, idle, over)
	}
}

// touch marks core for recounting at the next observe.
func (s *Simulator) touch(core int) {
	switch {
	case s.recountAll:
	case len(s.dirty) == cap(s.dirty):
		s.recountAll = true
	default:
		s.dirty = append(s.dirty, core)
	}
}

// recount moves core id to the class its current state puts it in.
func (s *Simulator) recount(id int) {
	c := s.m.Core(id)
	cl := classBusy
	switch {
	case c.Offline:
		// An offline core is not idle capacity, but work stranded on
		// it makes every online idle core a violation.
		if c.NThreads() > 0 {
			cl = classOver
		}
	case c.Idle():
		cl = classIdle
	case c.Overloaded():
		cl = classOver
	}
	s.nClass[s.class[id]]--
	s.nClass[cl]++
	s.class[id] = cl
}

// place is where a task bound for home lands: sched.Place's pick. A
// task it moves off an offline home counts as rescued, and aux — the
// trace Aux of its spawn or wake — names that home; it is -1 otherwise.
func (s *Simulator) place(home int) (core int, aux int64) {
	core = sched.Place(s.cfg.Policy, s.m, home).ID
	if core == home {
		return core, -1
	}
	s.counters.Rescued++
	return core, int64(home)
}

func (s *Simulator) handleSpawn(a *arrival) {
	core, aux := s.place(a.core)
	task := s.m.Spawn(core, a.weight)
	ts := s.tasks.Next() // entry task.ID: the machine numbers tasks as the slab does
	*ts = taskState{
		id:         int64(task.ID),
		task:       task,
		behavior:   a.behavior,
		status:     statusReady,
		arrival:    s.clock,
		readySince: s.clock,
	}
	s.nextAction(ts)
	s.emit(trace.KindSpawn, core, ts.id, aux)
	s.startIfIdle(core)
}

// nextAction pulls the next action from the behavior and arms remaining.
func (s *Simulator) nextAction(ts *taskState) {
	ts.action = ts.behavior.Next(s.clock, s.rng)
	if ts.action.RunFor < 1 {
		ts.action.RunFor = 1
	}
	ts.remaining = ts.action.RunFor
}

// startIfIdle promotes a ready task if the core runs nothing, and arms
// its slice event. With IdleBalance, a core with nothing to promote
// first tries one immediate steal. Every event that changes what a
// core holds ends here, so this is where the core is touched.
func (s *Simulator) startIfIdle(core int) {
	s.touch(core)
	c := s.m.Core(core)
	if c.Offline || c.Current != nil {
		return
	}
	if len(c.Queued()) == 0 && s.cfg.IdleBalance {
		s.idleBalance(core)
	}
	if c.Current != nil || len(c.Queued()) == 0 {
		return
	}
	t := c.ScheduleLocal()
	ts := s.state(int64(t.ID))
	ts.status = statusRunning
	ts.lastCore = core
	s.waitTime.Record(s.clock - ts.readySince)
	s.emit(trace.KindStart, core, ts.id, -1)
	s.armSlice(core, ts)
}

// armSlice schedules the end of the current run slice: the sooner of the
// action finishing and the preemption quantum.
func (s *Simulator) armSlice(core int, ts *taskState) {
	slice := ts.remaining
	if slice > s.cfg.Quantum {
		slice = s.cfg.Quantum
	}
	ts.sliceStart = s.clock
	ts.runSeq++
	s.post(event{time: s.clock + slice, kind: evSliceEnd, core: int32(core), task: ts.id, runSeq: ts.runSeq})
}

func (s *Simulator) handleSliceEnd(e event) {
	ts := s.state(e.task)
	if ts.runSeq != e.runSeq || ts.status != statusRunning {
		return // stale slice: the task blocked, exited or was rescheduled
	}
	core := s.m.Core(int(e.core))
	if core.Current == nil || int64(core.Current.ID) != ts.id {
		return // defensive: the core runs something else now
	}
	ts.remaining -= s.clock - ts.sliceStart
	if ts.remaining > 0 {
		// Quantum expiry mid-action: preempt if someone waits.
		if len(core.Queued()) > 0 {
			s.preempt(core, ts)
		} else {
			s.armSlice(core.ID, ts)
		}
		return
	}
	s.transition(core, ts)
}

func (s *Simulator) preempt(core *sched.Core, ts *taskState) {
	s.preemptions++
	s.emit(trace.KindPreempt, core.ID, ts.id, -1)
	t := core.Current
	core.Current = nil
	core.Push(t)
	ts.status = statusReady
	ts.readySince = s.clock
	s.startIfIdle(core.ID)
}

// transition applies the task's post-run action.
func (s *Simulator) transition(core *sched.Core, ts *taskState) {
	switch ts.action.Then {
	case ThenExit:
		core.Current = nil
		ts.status = statusExited
		ts.task, ts.behavior = nil, nil // the slab entry outlives the task
		s.completions++
		s.latency.Record(s.clock - ts.arrival)
		s.emit(trace.KindExit, core.ID, ts.id, -1)
		s.startIfIdle(core.ID)
	case ThenBlock:
		core.Current = nil
		ts.status = statusBlocked
		s.emit(trace.KindBlock, core.ID, ts.id, ts.action.BlockFor)
		s.post(event{time: s.clock + ts.action.BlockFor, kind: evWake, task: ts.id})
		s.startIfIdle(core.ID)
	case ThenYield:
		s.nextAction(ts)
		if len(core.Queued()) > 0 {
			s.preempt(core, ts)
		} else {
			s.armSlice(core.ID, ts)
		}
	case ThenBarrier:
		b := ts.action.Barrier
		if b == nil {
			panic(fmt.Sprintf("sim: task %d hit ThenBarrier without a barrier", ts.id))
		}
		if len(b.waiting)+1 >= b.Need {
			// Last arrival: release the generation and keep running.
			b.Generation++
			for _, id := range b.waiting {
				s.post(event{time: s.clock, kind: evWake, task: id})
			}
			b.waiting = b.waiting[:0]
			s.nextAction(ts)
			s.armSlice(core.ID, ts)
		} else {
			b.waiting = append(b.waiting, ts.id)
			core.Current = nil
			ts.status = statusBlocked
			s.emit(trace.KindBlock, core.ID, ts.id, -1)
			s.startIfIdle(core.ID)
		}
	default:
		panic(fmt.Sprintf("sim: unknown transition %d", ts.action.Then))
	}
}

func (s *Simulator) handleWake(e event) {
	ts := s.state(e.task)
	if ts.status != statusBlocked {
		return
	}
	core, aux := s.place(ts.lastCore) // wake where the task last ran (cache locality)
	ts.status = statusReady
	ts.readySince = s.clock
	s.nextAction(ts)
	s.m.Core(core).Push(ts.task)
	s.emit(trace.KindWake, core, ts.id, aux)
	s.startIfIdle(core)
}

// idleBalance runs one immediate three-step steal attempt on behalf of a
// newly idle core (selection against the live machine: nothing is stale,
// exactly the §4.2 isolated case, so the attempt cannot fail spuriously).
func (s *Simulator) idleBalance(core int) {
	att := sched.Select(s.cfg.Policy, s.m, core)
	sched.Steal(s.cfg.Policy, s.m, &att) // a no-op without a victim
	s.account(&att)
}

// account counts one steal attempt, idle or in a periodic round, and
// traces its outcome (the victim of a steal, which lost tasks, is
// touched).
func (s *Simulator) account(att *sched.Attempt) {
	if failed := s.counters.CountAttempt(att); failed {
		s.emit(trace.KindStealFail, att.Thief, -1, int64(att.Victim))
	} else if att.Succeeded() {
		s.touch(att.Victim)
		s.emit(trace.KindSteal, att.Thief, int64(att.MovedTasks[0]), int64(att.Victim))
	}
}

// handleFault applies a fail-stop or revive event through the model's
// shared rule; an event it refuses (already offline or online, the last
// online core) is a no-op and is not counted. A failing core's running
// task is preempted by the fault — its pending evSliceEnd goes stale
// through the status check, and it keeps whatever work its interrupted
// slice left unfinished — then the whole queue is offered to the
// policy's rescue rule. Without one the tasks stay stranded on the
// offline core (the runtime shadow of a no-task-lost refutation) until a
// revive makes them runnable again.
func (s *Simulator) handleFault(e event) {
	failed := int(e.core)
	c := s.m.Core(failed)
	cur := c.Current
	moved, err := s.m.ApplyFault(s.cfg.Policy, sched.FaultEvent{Core: failed, Revive: e.kind == evRevive})
	if err != nil {
		return
	}
	s.recountAll = true
	s.counters.CountFault(moved)
	if e.kind == evRevive {
		s.emit(trace.KindRevive, failed, -1, int64(len(c.Queued())))
		s.startIfIdle(failed)
		return
	}
	if cur != nil {
		ts := s.state(int64(cur.ID))
		ts.remaining -= s.clock - ts.sliceStart
		if ts.remaining < 1 {
			ts.remaining = 1
		}
		ts.status = statusReady
		ts.readySince = s.clock
	}
	s.emit(trace.KindFail, failed, -1, int64(moved))
	if moved == 0 {
		return
	}
	// The rescued tasks sit on online cores now: start any that landed
	// on an idle one.
	for id := range s.m.Cores {
		s.startIfIdle(id)
	}
}

func (s *Simulator) handleBalance() {
	s.recountAll = true
	s.counters.Rounds++
	var rr sched.RoundResult
	if s.cfg.Mode == RoundSequential {
		rr = sched.SequentialRound(s.cfg.Policy, s.m)
	} else {
		rr = sched.ConcurrentRound(s.cfg.Policy, s.m, s.rng.permInto(s.order))
	}
	for i := range rr.Attempts {
		s.account(&rr.Attempts[i])
	}
	for id := 0; id < s.cfg.Cores; id++ {
		s.startIfIdle(id)
	}
	s.emit(trace.KindRound, -1, -1, int64(rr.TasksMoved()))
	s.post(event{time: s.clock + s.cfg.BalancePeriod, kind: evBalance})
}
