package verify

import (
	"fmt"
	"strconv"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// divergence says how a sequential convergence loop ended.
type divergence int

const (
	converged divergence = iota
	exhausted            // maxRounds rounds without reaching the goal
	stuck                // a round moved no task short of the goal
	cycled               // a state recurred short of the goal
)

// converge iterates sequential rounds on m until done(m) holds and
// returns the rounds that took, or how the loop failed: because
// sequential rounds are deterministic, a repeated state short of the
// goal is a livelock and a moveless round short of it is stuck for
// good. m is left at the state the loop ended in, for the witness. seen
// is the caller's cycle set, reset here so one set serves a whole shard.
func converge(f Factory, m *sched.Machine, maxRounds int, seen *statespace.Visited, done func(*sched.Machine) bool) (rounds int, end divergence) {
	seen.Reset()
	seen.Add(m)
	for round := 0; ; round++ {
		if done(m) {
			return round, converged
		}
		if round >= maxRounds {
			return round, exhausted
		}
		rr := sched.SequentialRound(f(), m)
		if rr.TasksMoved() == 0 {
			return round, stuck
		}
		if !seen.Add(m) {
			return round, cycled
		}
	}
}

// workConservationSequential checks the §3.2 definition in the §4.2
// sequential setting on one state: iterating sequential rounds from it
// reaches a work-conserved state within a finite number of rounds. The
// result's Bound is the worst-case N observed — the existential witness
// of the paper's definition.
func (sc *shardScratch) workConservationSequential(rank int, m *sched.Machine) bool {
	start := appendLoads(sc.start[:0], m)
	sc.start = start
	rounds, end := converge(sc.f, m, sc.maxRounds, &sc.seen, (*sched.Machine).WorkConserved)
	switch end {
	case exhausted:
		return sc.refute(rank, func() string {
			return fmt.Sprintf("state %s: no convergence after %d rounds", ints(start), sc.maxRounds)
		})
	case stuck:
		return sc.refute(rank, func() string {
			return "state " + ints(start) + ": stuck at non-conserved " + ints(m.Loads()) + " (no steal possible)"
		})
	case cycled:
		return sc.refute(rank, func() string {
			return "state " + ints(start) + ": sequential rounds cycle through " + ints(m.Loads()) + " without conserving"
		})
	}
	sc.res.raiseBound(rounds)
	return true
}

// successorFunc enumerates the adversary's one-round successors of a
// machine state for an explorer, invoking visit with each resulting
// state and the adversarial decisions that led to it: the steal order
// and, when the adversary also chose the victims, the attempts carrying
// them (nil otherwise). next, atts and order are the enumeration's own
// storage — unchanged for the duration of the visit, reused after it.
// Enumeration stops early when visit returns false; the function reports
// whether it ran to completion.
//
// The selection phase runs once per state, not once per order: it reads
// only the round-start snapshot, which no order can change.
type successorFunc func(e *concExplorer, m *sched.Machine, visit func(next *sched.Machine, atts []sched.Attempt, order []int) bool) bool

// orderSuccessors gives the adversary control of the steal serialization
// order only — the §4.3 model where the policy's own Choose picks
// victims.
func orderSuccessors(e *concExplorer, m *sched.Machine, visit func(*sched.Machine, []sched.Attempt, []int) bool) bool {
	p := e.sc.f()
	return e.permuteSteals(p, m, sched.SelectAll(p, m), nil, visit)
}

// choiceSuccessors gives the adversary control of both the victim chosen
// in step 2 (any core that passed the filter) and the steal order —
// checking the paper's claim that the exact choice "does not matter for
// the correctness proof". The candidate sets come from the policy's own
// filter against the round-start snapshot.
func choiceSuccessors(e *concExplorer, m *sched.Machine, visit func(*sched.Machine, []sched.Attempt, []int) bool) bool {
	base := sched.SelectAll(e.sc.f(), m)
	// The steals re-validate under a second instance, one that has not
	// seen BeginRound, never the selecting one: sharing it flips
	// cfs-group-buggy's verdict on a grouped 4-core universe (ROADMAP
	// item 3(a) records the open question).
	p := e.sc.f()
	// The adversary's attempts are borrowed per search depth, like the
	// order-walk scratch: they stay on the search path while visited.
	var atts []sched.Attempt
	if n := len(e.atts); n > 0 {
		atts, e.atts = e.atts[n-1], e.atts[:n-1]
	}
	atts = append(atts[:0], base...)
	ok := e.chooseVictims(p, m, base, atts, 0, visit)
	e.atts = append(e.atts, atts)
	return ok
}

// chooseVictims gives the attempts of cores core.. every victim their
// filter admitted, and permutes the steals of each assignment.
func (e *concExplorer) chooseVictims(p sched.Policy, m *sched.Machine, base, atts []sched.Attempt, core int, visit func(*sched.Machine, []sched.Attempt, []int) bool) bool {
	if core == len(base) {
		return e.permuteSteals(p, m, atts, atts, visit)
	}
	if base[core].Victim < 0 {
		return e.chooseVictims(p, m, base, atts, core+1, visit)
	}
	for _, victim := range base[core].Candidates {
		atts[core].Victim = victim
		if !e.chooseVictims(p, m, base, atts, core+1, visit) {
			return false
		}
	}
	return true
}

// permuteSteals visits the state every steal order makes of m under the
// selected attempts — one order per class of orders that differ only in
// where the no-op cores sit (stealOrders), counted by the schedules it
// stands for — each on a machine borrowed from the explorer's free list
// for the duration of the visit. chosen is what visit is told the
// adversary picked besides the order. The orders are walked on scratch
// borrowed the same way: the walk one search depth down must not disturb
// this one, whose order stays on the search path while it is visited.
func (e *concExplorer) permuteSteals(p sched.Policy, m *sched.Machine, atts, chosen []sched.Attempt, visit func(*sched.Machine, []sched.Attempt, []int) bool) bool {
	var perms permScratch
	if n := len(e.perms); n > 0 {
		perms, e.perms = e.perms[n-1], e.perms[:n-1]
	}
	ok := perms.stealOrders(atts, func(order []int, weight int) bool {
		var next *sched.Machine
		if n := len(e.free); n > 0 {
			next, e.free = e.free[n-1], e.free[:n-1]
		} else {
			next = new(sched.Machine)
		}
		sched.ExecuteSteals(p, next.CopyFrom(m), atts, order)
		e.sc.res.SchedulesChecked = satAdd(e.sc.res.SchedulesChecked, weight)
		ok := visit(next, chosen, order)
		e.free = append(e.free, next)
		return ok
	})
	e.perms = append(e.perms, perms)
	return ok
}

// permScratch is what a steal-order walk runs on. Each shard keeps its
// own — the game explorer one per search depth — so walking the steal
// orders of a state allocates nothing once it is sized.
type permScratch []int

// stealOrders is the verifier's one steal-order walk, over the attempts
// a round's selection made (one per core, indexed by core ID). An
// attempt with no victim is a no-op in every order, so orders that differ
// only in where the no-op cores sit are one class (see the package doc):
// the walk hands fn one order per class — the k attempting cores in one
// of their k! orders, then the no-op cores in ascending ID, a full order
// of the n cores — and weight, the n!/k! full orders it stands for.
// order is s's storage, overwritten by the next one. The walk stops
// early when fn returns false and reports whether it ran to completion.
func (s *permScratch) stealOrders(atts []sched.Attempt, fn func(order []int, weight int) bool) bool {
	n := len(atts)
	if len(*s) != 4*n {
		*s = make([]int, 4*n)
	}
	ids, order, perm, state := (*s)[:n], (*s)[n:2*n], (*s)[2*n:3*n], (*s)[3*n:]
	k := 0
	for id := range atts {
		if atts[id].Victim >= 0 {
			ids[k] = id
			k++
		}
	}
	noop := k
	for id := range atts {
		if atts[id].Victim < 0 {
			order[noop] = id
			noop++
		}
	}
	weight := 1
	for i := k + 1; i <= n; i++ {
		weight *= i
	}
	return statespace.Permutations(perm[:k], state, func(p []int) bool {
		for i, x := range p {
			order[i] = ids[x]
		}
		return fn(order, weight)
	})
}

// appendLoads appends m's per-core thread counts — Machine.Loads — to
// dst. The checks keep a start state's loads this way, in the worker's
// buffer, and only a refutation renders them.
func appendLoads(dst []int, m *sched.Machine) []int {
	for _, c := range m.Cores {
		dst = append(dst, c.NThreads())
	}
	return dst
}

// appendInts appends xs to dst as fmt's %v renders an []int — "[1 2 3]"
// — without the reflection that boxes every element. Witnesses render
// loads, steal orders and victims through it.
func appendInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// ints is appendInts as a string.
func ints(xs []int) string { return string(appendInts(nil, xs)) }

// concExplorer performs the adversarial game-graph search: states are
// nodes, with one edge per adversarial decision produced by succ. The
// adversary wins — the policy is not work-conserving — iff it can reach
// a cycle of non-conserved states (including self-loops: rounds that
// change nothing). Otherwise every path reaches conservation and the
// longest path is the worst-case N.
//
// An explorer's memo is shard-local: sharing it across shards would need
// locking on the hottest table, and the per-shard memo still collapses
// the game graph under each shard's start states. The explorer itself is
// the worker's (shardScratch), reset per shard task: its memo is cleared
// and its free lists kept. Cancellation is polled per explored node (every
// 64, matching the enumeration stride); the steal orders walked under a
// node need no extra polling because every successor edge immediately
// re-enters explore, which polls.
type concExplorer struct {
	sc   *shardScratch // the scratch e is part of: the running task's context, factory, Result and game target
	succ successorFunc // the adversary of the game being played
	rank int           // the rank of the start state being explored
	// memo maps every state key the game has reached to its worst rounds
	// to terminal (≥ 0), or to onPath or gone; key is the AppendKey
	// scratch a lookup renders into.
	memo statespace.KeyTable
	key  []byte
	// path holds the nodes whose successors are being explored, root
	// first; visitNext is visit, bound once.
	path      []pathNode
	visitNext func(*sched.Machine, []sched.Attempt, []int) bool
	free      []*sched.Machine  // successor machines not on the current path, for reuse
	perms     []permScratch     // order-walk scratch not in use by a search depth, for reuse
	atts      [][]sched.Attempt // choiceSuccessors' attempts not in use by a search depth, for reuse
	violation string
	aborted   bool // violation is a cancellation, not a refutation
	polls     int  // amortizes the ctx check to every 64 explored nodes
}

// The memo's two sentinel values; every other value is a node's worst
// rounds to terminal.
const (
	onPath int32 = -1 // the node is on the search path: reaching it again closes a cycle
	gone   int32 = -2 // a search from the node failed: it is neither memoized nor on the path
)

// reset readies e, the explorer of sc, for a new shard task: the search
// state — memo, path, verdict, poll count — starts empty, as a fresh
// explorer's would; the free lists are kept.
func (e *concExplorer) reset(sc *shardScratch) {
	e.sc = sc
	e.path, e.violation, e.aborted, e.polls = e.path[:0], "", false, 0
	if e.visitNext == nil {
		e.visitNext = e.visit
	}
	e.memo.Reset()
}

// terminal reports whether the game is over at m: m is work-conserved,
// or, in a reactivity game, the target core has work or there is no
// overloaded core left to take it from.
func (e *concExplorer) terminal(m *sched.Machine) bool {
	if t := e.sc.target; t >= 0 {
		return !m.Core(t).Idle() || !hasOverloaded(m)
	}
	return m.WorkConserved()
}

// explore returns the worst-case rounds-to-conservation from m, or false
// if the adversary can prevent conservation (violation is filled in, by
// a cycle only if the start rank can win: canWin). One memo lookup per node
// serves the memo, the cycle check and the insert; the node's entry, not
// its key, is what the search holds.
func (e *concExplorer) explore(m *sched.Machine) (int, bool) {
	e.polls++
	if e.polls&63 == 0 && e.sc.ctx.Err() != nil {
		e.violation = "aborted: " + e.sc.ctx.Err().Error()
		e.aborted = true
		return 0, false
	}
	e.key = m.AppendKey(e.key[:0])
	node, found := e.memo.Lookup(e.key, onPath)
	if found {
		switch n := e.memo.Value(node); n {
		case onPath:
			if canWin(e.sc.best, e.rank) {
				e.violation = e.describeCycle(m, node)
			}
			return 0, false
		case gone:
			e.memo.Set(node, onPath)
		default:
			return int(n), true
		}
	}
	if e.terminal(m) {
		e.memo.Set(node, 0)
		return 0, true
	}
	e.path = append(e.path, pathNode{m: m, node: node})
	ok := e.succ(e, m, e.visitNext)
	worst := e.path[len(e.path)-1].worst
	e.path = e.path[:len(e.path)-1]
	if !ok {
		e.memo.Set(node, gone)
		return 0, false
	}
	e.memo.Set(node, int32(worst))
	return worst, true
}

// pathNode is a node on the search path: its state and memo entry, the
// edge out of it being explored — the adversary's decisions — and the
// worst rounds to terminal found among its successors so far. The state
// and the decisions are live and unchanged while the node is on the
// path, so nothing is copied or rendered unless describeCycle prints it.
type pathNode struct {
	m     *sched.Machine
	node  int             // the state's memo entry
	atts  []sched.Attempt // the adversary's victims, nil when it only picks the order
	order []int
	worst int
}

// visit is the successor callback of the node on top of the search path
// (bound once, as visitNext): it explores next, the state the adversary's
// atts and order make of the node, and folds its rounds into the node's.
func (e *concExplorer) visit(next *sched.Machine, atts []sched.Attempt, order []int) bool {
	top := len(e.path) - 1
	e.path[top].atts, e.path[top].order = atts, order
	n, ok := e.explore(next)
	if !ok {
		return false
	}
	if n+1 > e.path[top].worst {
		e.path[top].worst = n + 1
	}
	return true
}

// describeCycle renders the witness of a cycle closed by reaching
// repeat, whose memo entry is node, again.
func (e *concExplorer) describeCycle(repeat *sched.Machine, node int) string {
	xs := appendLoads(make([]int, 0, len(repeat.Cores)), repeat) // each step's loads or victims, rendered in turn
	b := appendInts(append(make([]byte, 0, 512), "adversarial livelock: state "...), xs)
	b = append(b, " recurs without conserving; schedule:"...)
	// Print the path suffix forming the cycle: from the first occurrence
	// of the repeated state — the path node with the same memo entry, so
	// the same key — to the top of the exploration stack.
	start := 0
	for i := range e.path {
		if e.path[i].node == node {
			start = i
			break
		}
	}
	for _, step := range e.path[start:] {
		xs = appendLoads(xs[:0], step.m)
		b = append(appendInts(append(b, ' '), xs), " --"...)
		if step.atts != nil {
			xs = xs[:0]
			for i := range step.atts {
				xs = append(xs, step.atts[i].Victim)
			}
			b = append(appendInts(append(b, "victims "...), xs), ' ')
		}
		b = append(appendInts(append(b, "steal-order "...), step.order), "-->"...)
	}
	b = appendInts(append(b, ' '), appendLoads(xs[:0], repeat))
	return string(b)
}

// lost folds a failed exploration into the shard's Result, which ends
// the shard: explore's violation is an abort when cancellation cut the
// search short — worded like every other checker's — and, introduced by
// from (which names the start state), a refutation at the start rank
// when the adversary won; empty if explore rendered no cycle.
func (e *concExplorer) lost(from func() string) bool {
	switch {
	case e.aborted:
		e.sc.res.abort(e.violation)
	case e.violation == "":
		e.sc.res.refute(e.rank, "")
	default:
		e.sc.res.refute(e.rank, from()+e.violation)
	}
	return false
}

// workConservationConcurrent checks work conservation in the full
// optimistic-concurrency setting of §4.3 on one start state: the §3.2
// definition under *every* adversarial serialization of every round's
// steals (orderSuccessors). This is the obligation greedy-buggy fails:
// on the 0/1/2 machine the adversary ping-pongs the spare thread between
// the two non-idle cores forever, and the explorer returns that cycle as
// the witness.
func (sc *shardScratch) workConservationConcurrent(rank int, m *sched.Machine) bool {
	return sc.conserves(rank, m, orderSuccessors)
}

// choiceIndependence checks the paper's central structural claim (§3.1),
// "the exact choice of the core does not matter for the correctness
// proof", on one start state: the adversary controls the step-2 choice
// (any filter-passing candidate) *and* the steal order
// (choiceSuccessors), so a policy whose proofs secretly rely on its
// Choose heuristic fails here even if it passes
// work-conservation-concurrent.
func (sc *shardScratch) choiceIndependence(rank int, m *sched.Machine) bool {
	return sc.conserves(rank, m, choiceSuccessors)
}

// conserves plays the work-conservation game from m against the
// adversary succ models. The explorer's memo is private to the shard; the
// refutation found from a shard's start state is independent of the
// memo's contents — memoized subtrees are violation-free by construction
// — so the merged witness is the one a whole-universe sequential scan
// finds first.
func (sc *shardScratch) conserves(rank int, m *sched.Machine, succ successorFunc) bool {
	e := &sc.explorer
	e.succ, e.rank, sc.target = succ, rank, -1
	n, ok := e.explore(m)
	if !ok {
		return e.lost(func() string { return "from " + ints(m.Loads()) + ": " })
	}
	sc.res.raiseBound(n)
	return true
}

// reactivity checks, on one state, the third performance property the
// paper's introduction lists as unproven in real systems: reactivity, "a
// bound on the delay to schedule ready threads". Formalized per core:
// for every core idle in the state and every adversarial schedule, the
// core stops being idle (or the machine runs out of overloaded cores to
// take from) within a bounded number of rounds. The result's Bound is
// that worst-case delay in rounds — the paper's missing latency limit,
// made concrete over the bounded universe.
func (sc *shardScratch) reactivity(rank int, m *sched.Machine) bool {
	e := &sc.explorer
	e.succ, e.rank = orderSuccessors, rank
	for _, c := range m.Cores {
		if !c.Idle() {
			continue
		}
		// A fresh game per target: the terminal predicate (and thus the
		// memo) depends on the target core.
		sc.target = c.ID
		e.memo.Reset()
		n, ok := e.explore(m)
		if !ok {
			return e.lost(func() string { return fmt.Sprintf("core %d can starve from %s: ", c.ID, ints(m.Loads())) })
		}
		sc.res.raiseBound(n)
	}
	return true
}

// hasOverloaded reports whether m has an overloaded core.
func hasOverloaded(m *sched.Machine) bool {
	for _, c := range m.Cores {
		if c.Overloaded() {
			return true
		}
	}
	return false
}
