package verify

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/statespace"
)

// graphRows are the rows that read the call's game graph.
var graphRows = []ObligationID{ObFailureImpliesSucc, ObWorkConservConc, ObChoiceIndependence, ObReactivity}

// callGraph is the game graph a call of the four graph rows builds for f
// over u on the given number of workers, kept out of the pool.
func callGraph(f Factory, u statespace.Universe, workers int) *gameGraph {
	scratch := make([]*shardScratch, workers)
	for w := range scratch {
		scratch[w] = &shardScratch{ctx: context.Background(), f: f, maxRounds: DefaultMaxRounds}
	}
	_, _, g := fanOut(u, graphRows, scratch)
	return g
}

// graphByKey is g as numbering leaves it: per node key, the goals met at
// it, its failure-implies-success facts, and each of its edges as the
// target's key, the edge's kinds and its weights.
func graphByKey(g *gameGraph) map[string]string {
	byKey := make(map[string]string, len(g.nodes))
	for i, n := range g.nodes {
		edges := make([]string, 0, n.out[1]-n.out[0])
		for _, e := range g.out(i) {
			edges = append(edges, fmt.Sprintf("%s kind %d weights %v", g.table.Key(int(e.to)), e.kind, e.w))
		}
		slices.Sort(edges)
		byKey[string(g.table.Key(i))] = fmt.Sprintf("met %b fis %d fails %v: %s", n.met, n.fis, n.fails, strings.Join(edges, "; "))
	}
	return byKey
}

// The graph does not depend on how many workers built it: as a map from
// key to successor keys, edge kinds and weights (and each node's goals
// and facts), the graph of every golden case is the same at Parallelism
// 1, 2 and 8.
func TestGraphIsTheSameAtEveryParallelism(t *testing.T) {
	for _, c := range goldenCases(t) {
		want := graphByKey(callGraph(c.f, c.u, 1))
		for _, workers := range []int{2, 8} {
			if got := graphByKey(callGraph(c.f, c.u, workers)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: the graph built by %d workers differs from one worker's", c.name, c.u, workers)
			}
		}
	}
}

// Every state is expanded once per call: the graph the four graph rows
// build over each golden case holds exactly the states an independent
// closure reaches — the start states, and every successor, in either
// game, of a state that does not conserve work — and the build calls the
// factory twice per expanded state that does not conserve work (its
// selecting instance and its choice game's) and once per work-conserved
// start state (its failure-implies-success facts), so no state was
// expanded twice.
func TestGraphExpandsEachStateOnce(t *testing.T) {
	for _, c := range goldenCases(t) {
		var calls atomic.Int64
		counting := func() sched.Policy { calls.Add(1); return c.f() }
		g := callGraph(counting, c.u, 2)

		u := c.u
		u.MaxFaults = 0
		seen := map[string]bool{}
		var work []*sched.Machine
		conservedStarts := 0
		u.Enumerate(func(m *sched.Machine) bool {
			if key := m.Key(); !seen[key] {
				seen[key] = true
				if m.WorkConserved() {
					conservedStarts++
				}
				work = append(work, m.Clone())
			}
			return true
		})
		expanded := 0
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			if x.WorkConserved() {
				continue
			}
			expanded++
			for _, id := range []ObligationID{ObWorkConservConc, ObChoiceIndependence} {
				for _, y := range successors(id, c.f, x) {
					if key := y.Key(); !seen[key] {
						seen[key] = true
						work = append(work, y)
					}
				}
			}
		}
		if len(g.nodes) != len(seen) {
			t.Errorf("%s %v: the graph has %d nodes, the closure %d states", c.name, c.u, len(g.nodes), len(seen))
		}
		if want := int64(2*expanded + conservedStarts); calls.Load() != want {
			t.Errorf("%s %v: the build called the factory %d times for %d expanded states and %d work-conserved start states, want %d",
				c.name, c.u, calls.Load(), expanded, conservedStarts, want)
		}
	}
}

// A shared graph is sound only if a node's expansion is a function of
// its key. For every registered policy, over every state of the golden
// universes: the step-3 decisions on each (thief, victim) pair, asked
// twice of one instance (after BeginRound, for an observer), agree, and
// leave the instance as the first asking did; and expanding the state,
// rebuilt from its key, twice through fresh factory calls walks the same
// rounds — the same successor keys, edge kinds and weights in the same
// order.
func TestNodeExpansionIsAFunctionOfItsKey(t *testing.T) {
	var universes []statespace.Universe
	for _, c := range goldenCases(t)[:4] { // one policy's: the universes
		u := c.u
		u.MaxFaults = 0
		universes = append(universes, u)
	}
	for _, name := range policy.Names() {
		spec, _ := policy.Lookup(name)
		f := func() sched.Policy { return spec.New(nil) }
		for _, u := range universes {
			sc := &shardScratch{ctx: context.Background(), f: f}
			sc.m.Reset(u.Cores, u.Groups)
			u.Enumerate(func(m *sched.Machine) bool {
				p := f()
				beginRound(p, m)
				for _, thief := range m.Cores {
					for _, victim := range m.Cores {
						if thief == victim {
							continue
						}
						first, state := decide(p, thief, victim), fmt.Sprintf("%+v", p)
						if again := decide(p, thief, victim); again != first || fmt.Sprintf("%+v", p) != state {
							t.Errorf("%s %v state %v c%d<-c%d: the step-3 decisions read %s, then %s", name, u, m.Loads(), thief.ID, victim.ID, first, again)
							return false
						}
					}
				}
				node := sc.m.CopyFrom(m)
				node.SetFromKey(m.AppendKey(nil))
				if a, b := rounds(sc, node), rounds(sc, node); !slices.Equal(a, b) {
					t.Errorf("%s %v state %v: two expansions walked\n%v\n%v", name, u, m.Loads(), a, b)
					return false
				}
				return true
			})
		}
	}
}

// decide renders policy p's step-3 decisions on the pair: its filter,
// and its steal sizing as DecideSteal makes it.
func decide(p sched.Policy, thief, victim *sched.Core) string {
	n, pick, reason := sched.DecideSteal(p, thief, victim)
	picked := "none"
	if pick != nil {
		picked = fmt.Sprint(pick.ID)
	}
	return fmt.Sprintf("filter %v, %d tasks (pick %s, %v)", p.CanSteal(thief, victim), n, picked, reason)
}

// rounds renders every round expand walks from m in both games, in
// order: the successor's key, the round's kinds and weight, and whether
// it fails failure-implies-success.
func rounds(sc *shardScratch, m *sched.Machine) []string {
	var out []string
	sc.expand(m, orderEdge|choiceEdge, func(rr sched.RoundResult, next *sched.Machine, _ []sched.Attempt, _ []int, weight int, kind edgeKind) bool {
		out = append(out, fmt.Sprintf("%s kind %d weight %d unexplained %v", next.Key(), kind, weight, unexplained(rr) != nil))
		return true
	})
	return out
}
