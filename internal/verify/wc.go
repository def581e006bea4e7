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

// edgeKind marks which game an edge of the game graph belongs to.
type edgeKind uint8

const (
	// orderEdge marks the order game's edges, the §4.3 model: the
	// policy's own victims, under every steal order, stolen by the
	// instance that selected them.
	orderEdge edgeKind = 1 << iota
	// choiceEdge marks the choice game's edges: any victim the filter
	// admitted, under every steal order, stolen by a second instance.
	choiceEdge
)

// edgeKinds is how many kinds there are; kind k is edgeKind(1 << k).
const edgeKinds = 2

// roundFunc is handed each round expand walks: its outcome, the
// successor it made, the victims the adversary chose (nil when the
// policy's Choose picked them), the steal order, the full orders that
// order stands for, and the games the round is an edge of. All of it is
// reused after the call; returning false stops the walk.
type roundFunc func(rr sched.RoundResult, next *sched.Machine, chosen []sched.Attempt, order []int, weight int, kind edgeKind) bool

// expand walks the adversary's one-round moves from m, in a fixed
// order, for the games in kinds, and reports whether it ran to
// completion. The selection phase runs once per state, not once per
// order: it reads only the round-start snapshot, which no order can
// change.
//
// The choice game's victim assignments are walked as an odometer over
// the candidates the policy's filter admitted against the snapshot, the
// last attempting core's choice turning fastest, each under every
// order. Its steals re-validate under a second instance, one that has
// not seen BeginRound, never the selecting one: sharing it flips
// cfs-group-buggy's verdict on a grouped 4-core universe (ROADMAP item
// 3(a) records the open question). The order game's rounds are the
// policy's own assignment under every order, stolen by the selecting
// instance. A policy that observes no round has nothing for the two
// instances to disagree on, so there the order game's rounds are the
// choice game's rounds of the policy's assignment, walked once for both.
func (sc *shardScratch) expand(m *sched.Machine, kinds edgeKind, visit roundFunc) bool {
	p := sc.f()
	base := sched.SelectAll(p, m)
	_, observes := p.(sched.RoundObserver)
	if kinds&choiceEdge != 0 {
		q := sc.f()
		atts := append(sc.atts[:0], base...)
		sc.atts = atts
		for i := range atts {
			if base[i].Victim >= 0 {
				atts[i].Victim = base[i].Candidates[0]
			}
		}
		for {
			kind := choiceEdge
			if !observes && kinds&orderEdge != 0 && sameVictims(atts, base) {
				kind |= orderEdge
			}
			if !sc.steals(q, m, atts, atts, kind, visit) {
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
				break
			}
		}
		if !observes || kinds&orderEdge == 0 {
			return true
		}
	}
	return sc.steals(p, m, base, nil, orderEdge, visit)
}

// sameVictims reports whether the assignment atts names the victims
// base does.
func sameVictims(atts, base []sched.Attempt) bool {
	for i := range atts {
		if atts[i].Victim != base[i].Victim {
			return false
		}
	}
	return true
}

// steals visits the round every steal order makes of m under the
// selected attempts — one order per class of orders that differ only in
// where the no-op cores sit (stealOrders) — each on the scratch's trial
// machine. chosen is what visit is told the adversary picked besides the
// order.
func (sc *shardScratch) steals(p sched.Policy, m *sched.Machine, atts, chosen []sched.Attempt, kind edgeKind, visit roundFunc) bool {
	return sc.perms.stealOrders(atts, func(order []int, weight int) bool {
		rr := sched.ExecuteSteals(p, sc.trial.CopyFrom(m), atts, order)
		return visit(rr, &sc.trial, chosen, order, weight, kind)
	})
}

// unexplained returns the first attempt of rr that failed re-validation
// with no earlier successful steal involving its thief or victim, or
// nil: the failure-implies-success obligation's counterexample.
func unexplained(rr sched.RoundResult) *sched.Attempt {
	for i := range rr.Attempts {
		if att := &rr.Attempts[i]; att.Reason == sched.FailRevalidation && !att.PredecessorSuccess {
			return att
		}
	}
	return nil
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

// lasso renders the adversary's win from node start, unsolved in layers
// of the game on kind's edges: the cycle the walk through first unsolved
// successors, in expand's order, ends in (every unsolved node has one).
func (sc *shardScratch) lasso(start int, layers []int32, kind edgeKind) string {
	g := sc.graph
	walk, marks := make([]int, 0, 16), make([]int, 0, 16) // the nodes walked, and where each one's step starts in w.b
	w := struct {
		next int    // the node the walk takes next
		b    []byte // the steps rendered so far
		xs   []int  // a step's loads or victims
	}{start, make([]byte, 0, 512), make([]int, 0, g.cores)}
	visit := func(_ sched.RoundResult, m *sched.Machine, atts []sched.Attempt, order []int, _ int, _ edgeKind) bool {
		j := g.find(sc, m)
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
		m := g.rebuild(&sc.m, w.next)
		w.xs = appendLoads(w.xs[:0], m)
		w.b = append(appendInts(append(w.b, ' '), w.xs), " --"...)
		sc.expand(m, kind, visit)
	}
	cycle := w.b[marks[slices.Index(walk, w.next)]:]
	repeat, _, _ := bytes.Cut(cycle[1:], []byte(" --"))
	return "adversarial livelock: state " + string(repeat) + " recurs without conserving; schedule:" + string(cycle) + " " + string(repeat)
}

// play holds start node start to goal in the game on kind's edges. Its
// layer and lasso depend only on the states it reaches, so the merge's
// re-check (explain) renders the lasso a whole-universe sequential scan
// finds first.
func (sc *shardScratch) play(rank, start int, kind edgeKind, goal int) bool {
	g := sc.graph
	layers := g.layers[kindIndex(kind)][goal]
	if layers[start] != unsolved {
		sc.res.raiseBound(int(layers[start]))
		return true
	}
	return sc.refute(rank, func() string {
		from := "from "
		if goal > 0 {
			from = "core " + strconv.Itoa(goal-1) + " can starve from "
		}
		from += ints(g.rebuild(&sc.m, start).Loads()) + ": "
		return from + sc.lasso(start, layers, kind)
	})
}

// workConservationConcurrent checks work conservation in the full
// optimistic-concurrency setting of §4.3 on one start state: the §3.2
// definition under *every* adversarial serialization of every round's
// steals (the order game). This is the obligation greedy-buggy fails: on
// the 0/1/2 machine the adversary ping-pongs the spare thread between
// the two non-idle cores forever, and the lasso is that cycle.
func (sc *shardScratch) workConservationConcurrent(rank int, _ *sched.Machine) bool {
	return sc.play(rank, sc.enter(orderGame), orderEdge, 0)
}

// choiceIndependence checks the paper's central structural claim (§3.1),
// "the exact choice of the core does not matter for the correctness
// proof", on one start state: the adversary controls the step-2 choice
// (any filter-passing candidate) *and* the steal order (the choice
// game), so a policy whose proofs secretly rely on its Choose heuristic
// fails here even if it passes work-conservation-concurrent.
func (sc *shardScratch) choiceIndependence(rank int, _ *sched.Machine) bool {
	return sc.play(rank, sc.enter(choiceGame), choiceEdge, 0)
}

// reactivity checks, on one state, the third performance property the
// paper's introduction lists as unproven in real systems: reactivity, "a
// bound on the delay to schedule ready threads". Formalized per core:
// for every core idle in the state and every adversarial schedule, the
// core stops being idle (or the machine runs out of overloaded cores to
// take from) within a bounded number of rounds. The result's Bound is
// that worst-case delay in rounds — the paper's missing latency limit,
// made concrete over the bounded universe. A core whose goal the state
// already meets is at layer 0 and bounds nothing.
func (sc *shardScratch) reactivity(rank int, _ *sched.Machine) bool {
	start := sc.enter(targetGames)
	met := sc.graph.nodes[start].met
	for c := 0; c < sc.graph.cores; c++ {
		if met&(2<<c) == 0 && !sc.play(rank, start, orderEdge, 1+c) {
			return false
		}
	}
	return true
}
