package verify

import (
	"context"
	"flag"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// certifyWide adds the 7-core universe to the certificate check; CI runs
// it, the default test run stays fast.
var certifyWide = flag.Bool("certify-wide", false, "also certify delta2's game verdicts on the 7-core universe (2 threads per core, 7 in all)")

// The game obligations: a proof of one is a ranking of states by their
// worst rounds to the goal.
var gameObligations = []ObligationID{ObWorkConservConc, ObChoiceIndependence, ObReactivity}

// ranker is the verifier's rank of a state in one game: its worst-case
// rounds to the goal, and whether the verifier ranked it at all.
type ranker func(m *sched.Machine) (int, bool)

// certify checks a proved game verdict as a certificate, re-deriving
// every game edge itself and trusting none of the verifier's own walk:
// each state is expanded on fresh machines under fresh policy instances
// by plain sched rounds over every steal order (the attempting cores'
// orders, no-op cores last, above five cores) and, for
// choice-independence, every victim the filter admitted. It holds the
// verifier's ranks r, shard by shard, to the certificate's three rules —
// every start state is ranked; r is 0 exactly on states where the game
// is over; elsewhere r is 1 + the largest r of the state's successors —
// and the verdict's bound to the largest r of a start state. Reactivity
// is certified per idle core of each start state.
func certify(id ObligationID, f Factory, u statespace.Universe, bound int) error {
	u.MaxFaults = 0 // no game row quantifies over faults
	var enum statespace.Enumerator
	var sc shardScratch
	worst := 0
	for s := 0; s < shardCount; s++ {
		var starts []*sched.Machine
		enum.EnumerateShardRank(u, s, shardCount, func(_ int, m *sched.Machine) bool {
			starts = append(starts, m.Clone())
			return true
		})
		ranks, err := verifierRanks(id, f, u, s, &sc)
		if err != nil {
			return err
		}
		certified := map[int]map[string]int{} // per target, the states already certified and their ranks
		for _, m := range starts {
			targets := []int{-1}
			if id == ObReactivity {
				targets = targets[:0]
				for _, c := range m.Cores {
					if c.Idle() {
						targets = append(targets, c.ID)
					}
				}
			}
			for _, target := range targets {
				rank := ranks(target)
				r, ok := rank(m)
				if !ok {
					return fmt.Errorf("start state %v (target %d) is not ranked", m.Loads(), target)
				}
				worst = max(worst, r)
				if certified[target] == nil {
					certified[target] = map[string]int{}
				}
				if err := certifyFrom(id, f, m, target, rank, certified[target]); err != nil {
					return err
				}
			}
		}
	}
	if worst != bound {
		return fmt.Errorf("the verdict's bound is %d, the largest rank of a start state %d", bound, worst)
	}
	return nil
}

// certifyFrom checks the ranks of every state the game from start
// reaches before it is over, skipping the states already certified.
func certifyFrom(id ObligationID, f Factory, start *sched.Machine, target int, rank ranker, certified map[string]int) error {
	work := []*sched.Machine{start.Clone()}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		r, ok := rank(x)
		if !ok {
			return fmt.Errorf("state %v (target %d), reachable from %v, is not ranked", x.Loads(), target, start.Loads())
		}
		key := x.Key()
		if prev, done := certified[key]; done {
			if prev != r {
				return fmt.Errorf("state %v (target %d) ranked %d and %d", x.Loads(), target, prev, r)
			}
			continue
		}
		certified[key] = r
		if gameOver(x, target) {
			if r != 0 {
				return fmt.Errorf("state %v (target %d) ends the game but is ranked %d", x.Loads(), target, r)
			}
			continue
		}
		most := -1
		for _, y := range successors(id, f, x) {
			ry, ok := rank(y)
			if !ok {
				return fmt.Errorf("successor %v of %v (target %d) is not ranked", y.Loads(), x.Loads(), target)
			}
			most = max(most, ry)
			work = append(work, y)
		}
		if r != most+1 {
			return fmt.Errorf("state %v (target %d) is ranked %d, but its successors' largest rank is %d", x.Loads(), target, r, most)
		}
	}
	return nil
}

// gameOver is the certificate's own statement of the goal: work
// conservation, or, for a reactivity target, the target core busy or no
// overloaded core left to take work from.
func gameOver(m *sched.Machine, target int) bool {
	if target < 0 {
		return m.WorkConserved()
	}
	if !m.Core(target).Idle() {
		return true
	}
	for _, c := range m.Cores {
		if c.Overloaded() {
			return false
		}
	}
	return true
}

// successors is every state one adversarial round makes of x, each on a
// machine of its own.
func successors(id ObligationID, f Factory, x *sched.Machine) []*sched.Machine {
	atts := slices.Clone(sched.SelectAll(f(), x.Clone()))
	orders := certificateOrders(atts)
	var next []*sched.Machine
	if id != ObChoiceIndependence {
		for _, order := range orders {
			y := x.Clone()
			sched.ConcurrentRound(f(), y, order)
			next = append(next, y)
		}
		return next
	}
	// Every victim assignment, the last attempting core's choice
	// turning fastest, each under every order.
	choice := make([]int, len(atts))
	for {
		for i := range atts {
			if atts[i].Victim >= 0 {
				atts[i].Victim = atts[i].Candidates[choice[i]]
			}
		}
		for _, order := range orders {
			y := x.Clone()
			sched.ExecuteSteals(f(), y, atts, order)
			next = append(next, y)
		}
		i := len(atts) - 1
		for ; i >= 0; i-- {
			if atts[i].Victim < 0 {
				continue
			}
			if choice[i]++; choice[i] < len(atts[i].Candidates) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return next
		}
	}
}

// certificateOrders lists the steal orders to expand: all n! up to five
// cores; above that, every order of the attempting cores with the no-op
// cores after them, in ascending ID.
func certificateOrders(atts []sched.Attempt) [][]int {
	n := len(atts)
	var ids, noop []int
	for id := range atts {
		if n <= 5 || atts[id].Victim >= 0 {
			ids = append(ids, id)
		} else {
			noop = append(noop, id)
		}
	}
	var orders [][]int
	statespace.Permutations(make([]int, len(ids)), make([]int, len(ids)), func(p []int) bool {
		order := make([]int, 0, n)
		for _, x := range p {
			order = append(order, ids[x])
		}
		orders = append(orders, append(order, noop...))
		return true
	})
	return orders
}

// verifierRanks runs shard s of obligation id on sc and returns the
// ranks the verifier's proof of it rests on, by target: the layers of
// the shard's game graph, work conservation's or the target core's.
func verifierRanks(id ObligationID, f Factory, u statespace.Universe, s int, sc *shardScratch) (func(target int) ranker, error) {
	if r := runTask(context.Background(), id, f, u, s, sc); !r.Passed {
		return nil, fmt.Errorf("shard %d is not proved: %s", s, r.Witness)
	}
	g := &sc.graph
	return func(target int) ranker {
		var layers []int32
		if target+1 < len(g.layers) {
			layers = g.layers[target+1]
		}
		return func(m *sched.Machine) (int, bool) {
			i, found := g.table.Lookup(m.AppendKey(nil), 0)
			if !found || i >= len(layers) || layers[i] == unsolved {
				return 0, false
			}
			return int(layers[i]), true
		}
	}, nil
}

// Every proved game verdict on the golden corpus carries a ranking
// certificate: the ranks the verifier proved it with hold up under an
// independent re-expansion of the game.
func TestGameVerdictsCarryRankingCertificates(t *testing.T) {
	certified := 0
	for _, c := range goldenCases(t) {
		certified += certifyReport(t, c.name, c.f, c.u)
	}
	if certified == 0 {
		t.Fatal("no proved game verdict on the golden corpus")
	}
}

// With -certify-wide, delta2's game verdicts on the 7-core universe carry
// a certificate too: wide enough that orders are expanded per class of
// the attempting cores.
func TestWideGameVerdictsCarryRankingCertificates(t *testing.T) {
	if !*certifyWide {
		t.Skip("the 7-core certificate runs with -certify-wide")
	}
	u := statespace.Universe{Cores: 7, MaxPerCore: 2, MaxTotal: 7, IncludeUnscheduled: true}
	if certifyReport(t, "delta2", delta2Factory, u) != len(gameObligations) {
		t.Fatal("delta2 is not proved on every game obligation")
	}
}

// certifyReport certifies every game verdict f's report proves on u and
// returns how many it certified.
func certifyReport(t *testing.T, name string, f Factory, u statespace.Universe) int {
	t.Helper()
	start := time.Now()
	rep, err := PolicyContext(context.Background(), name, f, Config{Universe: u, Obligations: gameObligations})
	if err != nil {
		t.Fatal(err)
	}
	reported := time.Since(start)
	certified := 0
	for _, r := range rep.Results {
		if !r.Passed {
			continue
		}
		if err := certify(r.ID, f, u, r.Bound); err != nil {
			t.Errorf("%s %v %s: %v", name, u, r.ID, err)
		}
		certified++
	}
	t.Logf("%s %v: %d game verdicts reported in %v, certified in %v", name, u, certified, reported, time.Since(start)-reported)
	return certified
}
