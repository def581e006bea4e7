package verify

import (
	"bytes"
	"fmt"
	"slices"
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

// visitFunc is handed each one-round successor of a state, the
// adversary's decisions that led to it — the attempts carrying the
// victims it chose (nil when Choose picked them) and the steal order —
// and the full orders that order stands for. All three are reused after
// the call; returning false stops the enumeration.
type visitFunc func(next *sched.Machine, atts []sched.Attempt, order []int, weight int) bool

// successorFunc enumerates the adversary's one-round successors of a
// state, in a fixed order, and reports whether it ran to completion.
// The selection phase runs once per state, not once per order: it reads
// only the round-start snapshot, which no order can change.
type successorFunc func(sc *shardScratch, m *sched.Machine, visit visitFunc) bool

// orderSuccessors gives the adversary control of the steal serialization
// order only — the §4.3 model where the policy's own Choose picks
// victims.
func orderSuccessors(sc *shardScratch, m *sched.Machine, visit visitFunc) bool {
	p := sc.f()
	return sc.permuteSteals(p, m, sched.SelectAll(p, m), nil, visit)
}

// choiceSuccessors gives the adversary control of both the victim chosen
// in step 2 (any core that passed the filter) and the steal order —
// checking the paper's claim that the exact choice "does not matter for
// the correctness proof". The candidate sets come from the policy's own
// filter against the round-start snapshot; the victim assignments are
// walked as an odometer, the last attempting core's choice turning
// fastest.
func choiceSuccessors(sc *shardScratch, m *sched.Machine, visit visitFunc) bool {
	base := sched.SelectAll(sc.f(), m)
	// The steals re-validate under a second instance, one that has not
	// seen BeginRound, never the selecting one: sharing it flips
	// cfs-group-buggy's verdict on a grouped 4-core universe (ROADMAP
	// item 3(a) records the open question).
	p := sc.f()
	atts := append(sc.atts[:0], base...)
	sc.atts = atts
	for i := range atts {
		if base[i].Victim >= 0 {
			atts[i].Victim = base[i].Candidates[0]
		}
	}
	for {
		if !sc.permuteSteals(p, m, atts, atts, visit) {
			return false
		}
		i := len(atts) - 1
		for ; i >= 0; i-- {
			if cs := base[i].Candidates; base[i].Victim >= 0 {
				next := (slices.Index(cs, atts[i].Victim) + 1) % len(cs)
				if atts[i].Victim = cs[next]; next > 0 {
					break
				}
			}
		}
		if i < 0 {
			return true
		}
	}
}

// permuteSteals visits the state every steal order makes of m under the
// selected attempts — one order per class of orders that differ only in
// where the no-op cores sit (stealOrders) — each on the scratch's trial
// machine. chosen is what visit is told the adversary picked besides the
// order.
func (sc *shardScratch) permuteSteals(p sched.Policy, m *sched.Machine, atts, chosen []sched.Attempt, visit visitFunc) bool {
	return sc.perms.stealOrders(atts, func(order []int, weight int) bool {
		sched.ExecuteSteals(p, sc.trial.CopyFrom(m), atts, order)
		return visit(&sc.trial, chosen, order, weight)
	})
}

// permScratch is what a steal-order walk runs on. Each worker keeps one,
// so walking the steal orders of a state allocates nothing once it is
// sized.
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

// appendFaults appends a fault script to dst as fmt's %v renders it —
// "[fail(1) revive(1)]" — without the reflection that boxes every event.
func appendFaults(dst []byte, evs []sched.FaultEvent) []byte {
	dst = append(dst, '[')
	for i, ev := range evs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		kind := "fail("
		if ev.Revive {
			kind = "revive("
		}
		dst = append(strconv.AppendInt(append(dst, kind...), int64(ev.Core), 10), ')')
	}
	return append(dst, ']')
}

// faults is appendFaults as a string.
func faults(evs []sched.FaultEvent) string { return string(appendFaults(nil, evs)) }

// gameGraph is a shard task's game graph (see the package doc's game
// obligations), on storage the worker keeps: a node is numbered by its
// key's entry in table, which keeps the key, and each edge is threaded
// onto the list of edges into its target.
type gameGraph struct {
	table     statespace.KeyTable // an entry's value is 1 + the node that last linked it
	key       []byte              // the AppendKey scratch
	nodes     []gameNode
	succ      []int32 // per edge, node by node: its target
	src, next []int32 // per edge: its source, and the previous edge into its target (-1: none)
	expanded  int     // nodes [0, expanded) have their edges
	// layers[goal] holds the layers solve has given the goal, by node;
	// goal 0 is work conservation, goal 1+c reactivity's target core c.
	layers      [][]int32
	left, queue []int32 // solve's
	m           sched.Machine
}

// gameNode is where a node's edges lie in succ, its last incoming edge,
// and the goals met at it: bit 0 when the state is work-conserved — that
// ends every game, so the node is not expanded — and bit 1+c when core c
// has work or no core is overloaded.
type gameNode struct {
	succ [2]int32
	into int32
	met  uint32
}

// unsolved is the layer of a node from which the adversary can keep the
// game from its goal forever.
const unsolved = -1

// reset empties g for a shard task over u and keeps its storage; its
// machine takes u's layout, which every node's state shares (no round
// changes a core's node or group).
func (g *gameGraph) reset(u statespace.Universe) {
	g.m.Reset(u.Cores, u.Groups)
	g.table.Reset()
	g.nodes, g.succ, g.src, g.next, g.expanded = g.nodes[:0], g.succ[:0], g.src[:0], g.next[:0], 0
	for i := range g.layers {
		g.layers[i] = g.layers[i][:0]
	}
}

// node returns m's node, adding it when the graph has not reached m yet:
// node i is the table's entry i.
func (g *gameGraph) node(m *sched.Machine) int {
	g.key = m.AppendKey(g.key[:0])
	i, found := g.table.Lookup(g.key, 0)
	if found {
		return i
	}
	n := gameNode{into: -1}
	if m.WorkConserved() {
		n.met = 1
	}
	over := slices.ContainsFunc(m.Cores, (*sched.Core).Overloaded)
	for _, c := range m.Cores {
		if !c.Idle() || !over {
			n.met |= 2 << c.ID
		}
	}
	g.nodes = append(g.nodes, n)
	return i
}

// rebuild returns node i's state, g's machine until the next call, built
// from its key (sched.Machine.SetFromKey) on the layout reset gave it:
// queued tasks in ascending weight, task IDs afresh, however the game
// reached the node.
func (g *gameGraph) rebuild(i int) *sched.Machine {
	g.m.SetFromKey(g.table.Key(i))
	return &g.m
}

// grow adds start state m's node to the graph and expands, in one flat
// loop, every node not yet expanded, including those the loop discovers.
// It reports false if cancellation cut the expansion short.
func (sc *shardScratch) grow(m *sched.Machine, succ successorFunc) (start int, ok bool) {
	g := &sc.graph
	start = g.node(m)
	if sc.link == nil {
		sc.link = sc.linkSuccessor
	}
	for ; g.expanded < len(g.nodes); g.expanded++ {
		n := &g.nodes[g.expanded]
		n.succ[0] = int32(len(g.succ))
		if n.met&1 == 0 && !succ(sc, g.rebuild(g.expanded), sc.link) {
			return start, false
		}
		g.nodes[g.expanded].succ[1] = int32(len(g.succ)) // not n: the expansion may have moved g.nodes
	}
	return start, true
}

// linkSuccessor is grow's visit (bound once, as link): it counts the
// walked order and links next's node to the node being expanded, once.
func (sc *shardScratch) linkSuccessor(next *sched.Machine, _ []sched.Attempt, _ []int, weight int) bool {
	if !sc.walk(weight) {
		return false
	}
	g := &sc.graph
	j, from := g.node(next), int32(g.expanded)
	if g.table.Value(j) != from+1 {
		g.table.Set(j, from+1)
		g.succ, g.src, g.next = append(g.succ, int32(j)), append(g.src, from), append(g.next, g.nodes[j].into)
		g.nodes[j].into = int32(len(g.succ) - 1)
	}
	return true
}

// solve gives goal's layers to the nodes that lack them (a node's edges
// never change, so the others keep theirs) and returns them: one
// backward pass in Kahn's order, each node counting its unsolved
// successors and solved when the count reaches zero.
func (g *gameGraph) solve(goal int) []int32 {
	for len(g.layers) <= goal {
		g.layers = append(g.layers, nil)
	}
	layers, lo := g.layers[goal], len(g.layers[goal])
	left, queue := g.left[:0], g.queue[:0]
	for i := lo; i < len(g.nodes); i++ {
		layers = append(layers, unsolved)
		n := int32(0)
		for _, j := range g.successors(i, goal) {
			if int(j) >= lo || layers[j] == unsolved { // an old unsolved one never counts down
				n++
			}
		}
		if left = append(left, n); n == 0 {
			queue = append(queue, int32(i))
		}
	}
	// The graph is expanded to closure before every pass, so every edge
	// into a node the pass solves comes from a node it solves too.
	for q := 0; q < len(queue); q++ {
		i := queue[q]
		layers[i] = 0
		for _, j := range g.successors(int(i), goal) {
			layers[i] = max(layers[i], layers[j]+1)
		}
		for e := g.nodes[i].into; e >= 0; e = g.next[e] {
			if p := int(g.src[e]) - lo; left[p] > 0 { // a node meeting the goal was queued at 0
				if left[p]--; left[p] == 0 {
					queue = append(queue, g.src[e])
				}
			}
		}
	}
	g.layers[goal], g.left, g.queue = layers, left, queue
	return layers
}

// successors returns node i's successors in goal's game: none where the
// goal is met.
func (g *gameGraph) successors(i, goal int) []int32 {
	if n := &g.nodes[i]; n.met&(1<<goal) == 0 {
		return g.succ[n.succ[0]:n.succ[1]]
	}
	return nil
}

// lasso renders the adversary's win from node start, unsolved in layers:
// the cycle the walk through first unsolved successors ends in (every
// unsolved node has one).
func (sc *shardScratch) lasso(start int, layers []int32, succ successorFunc) string {
	walk, marks := make([]int, 0, 16), make([]int, 0, 16) // the nodes walked, and where each one's step starts in w.b
	w := struct {
		next int    // the node the walk takes next
		b    []byte // the steps rendered so far
		xs   []int  // a step's loads or victims
	}{start, make([]byte, 0, 512), make([]int, 0, len(sc.graph.m.Cores))}
	visit := func(m *sched.Machine, atts []sched.Attempt, order []int, _ int) bool {
		j := sc.graph.node(m)
		if layers[j] != unsolved {
			return true
		}
		if atts != nil {
			w.xs = w.xs[:0]
			for _, att := range atts {
				w.xs = append(w.xs, att.Victim)
			}
			w.b = append(appendInts(append(w.b, "victims "...), w.xs), ' ')
		}
		w.b, w.next = append(appendInts(append(w.b, "steal-order "...), order), "-->"...), j
		return false
	}
	for !slices.Contains(walk, w.next) {
		walk, marks = append(walk, w.next), append(marks, len(w.b))
		m := sc.graph.rebuild(w.next)
		w.xs = appendLoads(w.xs[:0], m)
		w.b = append(appendInts(append(w.b, ' '), w.xs), " --"...)
		succ(sc, m, visit)
	}
	cycle := w.b[marks[slices.Index(walk, w.next)]:]
	repeat, _, _ := bytes.Cut(cycle[1:], []byte(" --"))
	return "adversarial livelock: state " + string(repeat) + " recurs without conserving; schedule:" + string(cycle) + " " + string(repeat)
}

// play holds start state m to goal in the game succ's adversary plays.
// m's layer and lasso depend only on the states m reaches, not on what
// else the shard's graph holds, so the merge's re-check (explain), on a
// graph grown from the winning rank's states alone, renders the lasso a
// whole-universe sequential scan finds first.
func (sc *shardScratch) play(rank int, m *sched.Machine, succ successorFunc, goal int) bool {
	start, ok := sc.grow(m, succ)
	if !ok {
		return false
	}
	layers := sc.graph.solve(goal)
	if layers[start] != unsolved {
		sc.res.raiseBound(int(layers[start]))
		return true
	}
	return sc.refute(rank, func() string {
		from := "from "
		if goal > 0 {
			from = "core " + strconv.Itoa(goal-1) + " can starve from "
		}
		return from + ints(m.Loads()) + ": " + sc.lasso(start, layers, succ)
	})
}

// workConservationConcurrent checks work conservation in the full
// optimistic-concurrency setting of §4.3 on one start state: the §3.2
// definition under *every* adversarial serialization of every round's
// steals (orderSuccessors). This is the obligation greedy-buggy fails:
// on the 0/1/2 machine the adversary ping-pongs the spare thread between
// the two non-idle cores forever, and the lasso is that cycle.
func (sc *shardScratch) workConservationConcurrent(rank int, m *sched.Machine) bool {
	return sc.play(rank, m, orderSuccessors, 0)
}

// choiceIndependence checks the paper's central structural claim (§3.1),
// "the exact choice of the core does not matter for the correctness
// proof", on one start state: the adversary controls the step-2 choice
// (any filter-passing candidate) *and* the steal order
// (choiceSuccessors), so a policy whose proofs secretly rely on its
// Choose heuristic fails here even if it passes
// work-conservation-concurrent.
func (sc *shardScratch) choiceIndependence(rank int, m *sched.Machine) bool {
	return sc.play(rank, m, choiceSuccessors, 0)
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
	for _, c := range m.Cores {
		if c.Idle() && !sc.play(rank, m, orderSuccessors, 1+c.ID) {
			return false
		}
	}
	return true
}
