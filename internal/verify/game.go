package verify

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// This file is the call's game graph: one graph per PolicyContext call,
// over every state the universe's start states reach, built level by
// level on the call's workers and read by the four rows that quantify
// over concurrent rounds (see the package doc's game obligations).

// graphUse is what a row reads of the call's game graph: one flag per
// graph row, zero for a per-state row.
type graphUse uint8

const (
	seedFacts   graphUse = 1 << iota // failure-implies-success: the start nodes' facts
	orderGame                        // work-conservation-concurrent: the order game, goal 0
	choiceGame                       // choice-independence: the choice game, goal 0
	targetGames                      // reactivity: the order game, goal 1+c per target core c
)

// kinds returns the edges the rows in use play on.
func (use graphUse) kinds() edgeKind {
	var k edgeKind
	if use&(orderGame|targetGames) != 0 {
		k |= orderEdge
	}
	if use&choiceGame != 0 {
		k |= choiceEdge
	}
	return k
}

// kindIndex is kind's index among the edge kinds: 0 for orderEdge, 1 for
// choiceEdge.
func kindIndex(kind edgeKind) int { return bits.TrailingZeros8(uint8(kind)) }

// gameGraph is a call's game graph, on storage graphPool keeps from call
// to call. A node is numbered by its key's entry in table, which keeps
// the only copy of the key; its out-edges lie together in edges, and
// every edge is also threaded onto the list of edges into its target.
// Node numbers follow the build's levels, so they do not depend on the
// worker count, but nothing reported depends on them either.
type gameGraph struct {
	table  statespace.KeyTable
	starts []graphStart // the universe's start states, in enumeration order
	nodes  []gameNode
	edges  []gameEdge
	seeds  int // nodes [0, seeds) are the start states, in enumeration order
	cores  int
	groups []int    // the universe's layout, which every node's state shares; only read
	use    graphUse // the rows the graph is built for
	kinds  edgeKind // the edges the build adds
	facts  bool     // the build records failure-implies-success's facts on the start nodes

	// The level being expanded: nodes [lo, hi), claimed one at a time
	// by the workers; spans[i-lo] is where node i's edges lie in the
	// level of the worker that expanded it.
	lo, hi int
	claim  atomic.Int64
	spans  []edgeSpan

	// The builder and its helpers meet under mu: level counts the levels
	// opened, open says whether the current one takes helpers, busy
	// counts the workers expanding it, done says the build is over (the
	// caller clears it before any helper can look).
	mu     sync.Mutex
	cond   sync.Cond // on mu
	level  int
	open   bool
	busy   int
	done   bool
	helped time.Duration  // the helpers' time in the build
	built  time.Duration  // the build's time, the builder's and the helpers'; what it took is the graph rows' to share
	walked [edgeKinds]int // the weight of the orders walked, per edge kind
	cut    string         // why the build was cut short, as an aborted Result's witness
	stop   atomic.Bool    // it was
	begun  atomic.Int64   // the start nodes the build claimed

	// layers[k][goal] is what solve gave each node in the game on kind
	// k's edges; reached[s] is a bit per node, set once a task of game
	// row s (graphUse.slot) has counted the node's orders.
	layers      [edgeKinds][][]int32
	reached     [3][]uint32
	left, queue []int32 // solve's
}

// graphStart is an enumerated start state: its rank (see
// statespace.Enumerator.EnumerateShardRank) and its node.
type graphStart struct{ rank, node int32 }

// gameNode is where a node's out-edges lie in edges, its last incoming
// edge, the goals met at it — bit 0 when the state is work-conserved,
// which ends every game, so the node is not expanded unless it is a
// start state whose facts failure-implies-success reads; bit 1+c when
// core c has work or no core is overloaded — and, on a start node,
// failure-implies-success's facts.
type gameNode struct {
	out  [2]int32
	into int32 // -1: none
	met  uint32
	// fis is the weight of the order game's orders walked up to and
	// including the first that fails, all of them when none does; fails
	// says whether one does: a steal failed re-validation with no
	// predecessor success.
	fis   int
	fails bool
}

// gameEdge is one distinct successor of a node: the games it is an edge
// of, and per kind the summed weight of the walked orders that make it.
type gameEdge struct {
	to, from int32
	next     int32 // the previous edge into to, -1: none
	kind     edgeKind
	w        [edgeKinds]int
}

// edgeSpan is where a node's edges lie in a worker's level: recs[lo:hi]
// of worker w.
type edgeSpan struct{ w, lo, hi int32 }

// graphLevel is a worker's share of one level of the build: the
// distinct edges of the nodes it expanded, keyed by the source node and
// the target's key, in the order it walked them.
type graphLevel struct {
	edges  statespace.KeyTable // the source node (4 bytes), then the target's AppendKey
	recs   []edgeRec           // by entry of edges
	key    []byte
	from   int32 // the node being expanded
	link   bool  // its rounds are edges
	facts  bool  // its order game's rounds are failure-implies-success's
	walked [edgeKinds]int
}

// edgeRec is an edge as a worker collects it.
type edgeRec struct {
	met  uint32 // the target's goals
	kind edgeKind
	w    [edgeKinds]int
}

// graphPool keeps game graphs between calls.
var graphPool = sync.Pool{New: func() any {
	g := new(gameGraph)
	g.cond.L = &g.mu
	return g
}}

// build makes g the game graph of the start states in shard of a
// total-way partition of u (PolicyContext's: shard 0 of 1, all of them),
// for the rows in use, solves the games those rows play, and reports
// whether it ran to closure. Every start state is a node, and every node
// a game reaches is expanded once: walked under the edge kinds the rows
// play on unless it is work-conserved, and under the order game besides
// when it is a start state whose facts failure-implies-success reads. It
// stops at the start states when only those facts are in use.
//
// The build runs level by level on sc, worker w of the call's scratch,
// and on every other worker that has nothing left to do but wait for it
// (help). The workers claim the level's nodes one at a time and collect
// each node's distinct edges in their own level; once all of them are
// done, the builder numbers the new targets and links the edges in node
// order, so the numbering does not depend on who expanded what. A
// cancellation or a panic on any worker stops them all, and the graph
// rows report it (cutResult).
func (g *gameGraph) build(u statespace.Universe, shard, total int, scratch []*shardScratch, w int, use graphUse) bool {
	defer g.finish(time.Now()) //schedlint:allow determinism build timing is telemetry beside the report (Report.Elapsed, json:"-"), never in a Result, a memo key or a WAL frame
	u.MaxFaults = 0            // no graph row quantifies over faults
	g.reset(u, use)
	sc := scratch[w]
	g.attach(sc)
	if g.poll(sc.ctx) {
		sc.enum.EnumerateShardRank(u, shard, total, func(rank int, m *sched.Machine) bool {
			sc.key = m.AppendKey(sc.key[:0])
			g.starts = append(g.starts, graphStart{int32(rank), int32(g.add(sc.key, goalsMet(m)))})
			return true
		})
		g.seeds = len(g.nodes)
		g.levels(scratch, w)
	}
	for s := range g.reached {
		g.reached[s] = slices.Grow(g.reached[s][:0], (len(g.nodes)+31)/32)[:(len(g.nodes)+31)/32]
		clear(g.reached[s])
	}
	if g.cut == "" {
		for _, use := range [...]graphUse{orderGame, choiceGame, targetGames} {
			if g.use&use != 0 {
				g.prepare(use)
			}
		}
	}
	return g.cut == ""
}

// finish stamps the build's time and releases the helpers waiting for
// it — deferred, so that not even a verifier bug leaves them waiting.
func (g *gameGraph) finish(start time.Time) {
	g.mu.Lock()
	g.built = time.Since(start) + g.helped //schedlint:allow determinism build timing is telemetry beside the report, never in it
	g.done = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// reset empties g for a build over u for the rows in use, keeping its
// storage.
func (g *gameGraph) reset(u statespace.Universe, use graphUse) {
	g.table.Reset()
	g.starts, g.nodes, g.edges = g.starts[:0], g.nodes[:0], g.edges[:0]
	g.seeds, g.cores, g.groups, g.use, g.kinds, g.facts = 0, u.Cores, u.Groups, use, use.kinds(), use&seedFacts != 0
	g.cut, g.walked, g.helped = "", [edgeKinds]int{}, 0
	g.stop.Store(false)
	g.begun.Store(0)
	for k := range g.layers {
		for goal := range g.layers[k] {
			g.layers[k][goal] = g.layers[k][goal][:0]
		}
	}
}

// attach readies sc to read and expand g: its machine takes the layout
// every node's state shares (no round changes a core's node or group).
func (g *gameGraph) attach(sc *shardScratch) {
	sc.graph = g
	sc.m.Reset(g.cores, g.groups)
	if sc.link == nil {
		sc.link = sc.linkRound
	}
}

// levels runs the build's levels: it opens each to the helpers, expands
// it as worker w, waits for the helpers that joined it, and links it. A
// level is the next levelNodes nodes not yet expanded, in node order
// (the start states first), so the workers' buffers stay small however
// wide the graph grows.
func (g *gameGraph) levels(scratch []*shardScratch, w int) {
	for g.lo = 0; g.lo < len(g.nodes); g.lo = g.hi {
		g.hi = min(len(g.nodes), g.lo+levelNodes)
		g.spans = slices.Grow(g.spans[:0], g.hi-g.lo)[:g.hi-g.lo]
		g.claim.Store(int64(g.lo))
		g.mu.Lock()
		g.level++
		g.busy++
		if g.open = g.hi-g.lo >= sharedLevel; g.open {
			g.cond.Broadcast()
		}
		g.mu.Unlock()
		scratch[w].expandLevel(w)
		g.mu.Lock()
		g.open = false
		g.leave(scratch[w])
		for g.busy > 0 {
			g.cond.Wait()
		}
		g.mu.Unlock()
		if g.stop.Load() {
			return
		}
		g.insert(scratch) // no edges, no nodes past the start states, when only failure-implies-success reads the graph
	}
}

// levelNodes is the most nodes a level holds.
const levelNodes = 2048

// sharedLevel is the fewest nodes a level has for the builder to wake
// its helpers: below it, waking one costs more than it saves.
const sharedLevel = 32

// help lends worker w, sc, to the build until it is done: it expands
// every level opened while it waits. A worker calls it when the task it
// claimed reads the graph.
func (g *gameGraph) help(sc *shardScratch, w int) {
	g.mu.Lock()
	for joined := 0; !g.done; {
		if !g.open || joined == g.level {
			g.cond.Wait()
			continue
		}
		joined = g.level
		g.busy++
		g.mu.Unlock()
		if sc.graph != g {
			g.attach(sc)
		}
		start := time.Now() //schedlint:allow determinism build timing is telemetry beside the report (Report.Elapsed, json:"-"), never in a Result, a memo key or a WAL frame
		sc.expandLevel(w)
		took := time.Since(start) //schedlint:allow determinism build timing is telemetry beside the report, never in it
		g.mu.Lock()
		g.helped += took
		g.leave(sc)
	}
	g.mu.Unlock()
}

// leave, under g.mu, adds what worker sc walked in the level to the
// build's counts and wakes the builder when it was the last one out.
func (g *gameGraph) leave(sc *shardScratch) {
	for k, w := range sc.level.walked {
		g.walked[k] = satAdd(g.walked[k], w)
	}
	if g.busy--; g.busy == 0 {
		g.cond.Broadcast()
	}
}

// expandLevel expands the nodes of the level worker w claims, into its
// own level, containing a panic as a cut: a crashing policy stops the
// build, never the process.
func (sc *shardScratch) expandLevel(w int) {
	g, l := sc.graph, &sc.level
	defer func() {
		if p := recover(); p != nil {
			g.fail(fmt.Sprintf("aborted: checker panic: %v", p))
		}
	}()
	l.edges.Reset()
	l.recs, l.walked = l.recs[:0], [edgeKinds]int{}
	for !g.stop.Load() {
		i := int(g.claim.Add(1)) - 1
		if i >= g.hi {
			return
		}
		if i < g.seeds {
			g.begun.Add(1)
		}
		first := len(l.recs)
		sc.expandNode(i)
		g.spans[i-g.lo] = edgeSpan{int32(w), int32(first), int32(len(l.recs))}
	}
}

// expandNode walks node i's rounds into the worker's level (see build
// for which).
func (sc *shardScratch) expandNode(i int) {
	g, l := sc.graph, &sc.level
	conserved := g.nodes[i].met&1 != 0
	kinds := g.kinds
	if conserved {
		kinds = 0
	}
	if l.facts = g.facts && i < g.seeds; l.facts {
		kinds |= orderEdge
	}
	if kinds == 0 {
		return
	}
	l.from, l.link = int32(i), !conserved
	sc.walked = 0 // a node's first order polls
	sc.expand(g.rebuild(&sc.m, i), kinds, sc.link)
}

// linkRound is the build's roundFunc (bound once, as link): it polls
// cancellation every 64 orders the node walks, counts the order, records
// failure-implies-success's facts on a start node, and collects the
// round's successor as an edge of the node being expanded, once per
// distinct successor.
func (sc *shardScratch) linkRound(rr sched.RoundResult, next *sched.Machine, _ []sched.Attempt, _ []int, weight int, kind edgeKind) bool {
	g, l := sc.graph, &sc.level
	if sc.walked&63 == 0 && !g.poll(sc.ctx) {
		return false
	}
	sc.walked++
	for k := range l.walked {
		if kind&(1<<k) != 0 {
			l.walked[k] = satAdd(l.walked[k], weight)
		}
	}
	if n := &g.nodes[l.from]; l.facts && kind&orderEdge != 0 && !n.fails {
		n.fis = satAdd(n.fis, weight)
		n.fails = unexplained(rr) != nil
	}
	if kind &= g.kinds; !l.link || kind == 0 {
		return true
	}
	l.key = next.AppendKey(binary.LittleEndian.AppendUint32(l.key[:0], uint32(l.from)))
	e, found := l.edges.Lookup(l.key)
	if !found {
		l.recs = append(l.recs, edgeRec{met: goalsMet(next)})
	}
	r := &l.recs[e]
	r.kind |= kind
	for k := range r.w {
		if kind&(1<<k) != 0 {
			r.w[k] = satAdd(r.w[k], weight)
		}
	}
	return true
}

// insert numbers the targets of the level's edges and links the edges,
// node by node in level order.
func (g *gameGraph) insert(scratch []*shardScratch) {
	for i := g.lo; i < g.hi; i++ {
		sp := g.spans[i-g.lo]
		l := &scratch[sp.w].level
		g.nodes[i].out[0] = int32(len(g.edges))
		for e := sp.lo; e < sp.hi; e++ {
			r := &l.recs[e]
			j := g.add(l.edges.Key(int(e))[4:], r.met)
			g.edges = append(g.edges, gameEdge{to: int32(j), from: int32(i), next: g.nodes[j].into, kind: r.kind, w: r.w})
			g.nodes[j].into = int32(len(g.edges) - 1)
		}
		g.nodes[i].out[1] = int32(len(g.edges))
	}
}

// add returns key's node, adding it, with the goals met at it, when the
// graph has not reached it yet: node i is the table's entry i.
func (g *gameGraph) add(key []byte, met uint32) int {
	i, found := g.table.Lookup(key)
	if !found {
		g.nodes = append(g.nodes, gameNode{into: -1, met: met})
	}
	return i
}

// goalsMet returns the goals met at m (see gameNode).
func goalsMet(m *sched.Machine) uint32 {
	var met uint32
	if m.WorkConserved() {
		met = 1
	}
	over := slices.ContainsFunc(m.Cores, (*sched.Core).Overloaded)
	for _, c := range m.Cores {
		if !c.Idle() || !over {
			met |= 2 << c.ID
		}
	}
	return met
}

// poll reports whether the build goes on, cutting it short when ctx is
// done.
func (g *gameGraph) poll(ctx context.Context) bool {
	if g.stop.Load() {
		return false
	}
	if err := ctx.Err(); err != nil {
		g.fail("aborted: " + err.Error())
		return false
	}
	return true
}

// fail cuts the build short, why being the first reason any worker gave.
func (g *gameGraph) fail(why string) {
	g.mu.Lock()
	if g.cut == "" {
		g.cut = why
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

// cutResult is graph row id's Result when the build was cut short: the
// start states the build had claimed and the orders it had walked on the
// row's edges.
func (g *gameGraph) cutResult(id ObligationID, use graphUse) Result {
	k := 0
	if use == choiceGame {
		k = kindIndex(choiceEdge)
	}
	return Result{ID: id, Aborted: true, Witness: g.cut, StatesChecked: int(g.begun.Load()), SchedulesChecked: g.walked[k]}
}

// rebuild returns node i's state in m, built from its key
// (sched.Machine.SetFromKey) on the layout m has: queued tasks in
// ascending weight, task IDs afresh, however the game reached the node.
func (g *gameGraph) rebuild(m *sched.Machine, i int) *sched.Machine {
	m.SetFromKey(g.table.Key(i))
	return m
}

// find returns m's node, keyed in sc's buffer. Every state a game
// reaches is a node, so a miss is a verifier bug.
func (g *gameGraph) find(sc *shardScratch, m *sched.Machine) int {
	sc.key = m.AppendKey(sc.key[:0])
	i := g.table.Find(sc.key)
	if i < 0 {
		panic("verify: state " + ints(m.Loads()) + " is not in the game graph")
	}
	return i
}

// out returns node i's edges.
func (g *gameGraph) out(i int) []gameEdge {
	n := &g.nodes[i]
	return g.edges[n.out[0]:n.out[1]]
}

// unsolved is the layer of a node from which the adversary can keep the
// game from its goal forever.
const unsolved = -1

// prepare solves the games the graph row in use plays; the row's tasks
// then only read the layers.
func (g *gameGraph) prepare(use graphUse) {
	switch use {
	case orderGame:
		g.solve(orderEdge, 0)
	case choiceGame:
		g.solve(choiceEdge, 0)
	case targetGames:
		for c := 0; c < g.cores; c++ {
			g.solve(orderEdge, 1+c)
		}
	}
}

// solve gives every node its layer in the game on kind's edges toward
// goal: one backward pass in Kahn's order, each node counting its
// unsolved successors and solved when the count reaches zero. A node
// meeting the goal is layer 0, any other 1 + its successors' largest
// layer — its worst-case rounds — and a node never solved is unsolved.
func (g *gameGraph) solve(kind edgeKind, goal int) {
	k := kindIndex(kind)
	for len(g.layers[k]) <= goal {
		g.layers[k] = append(g.layers[k], nil)
	}
	layers, left, queue := g.layers[k][goal][:0], g.left[:0], g.queue[:0]
	for i := range g.nodes {
		layers = append(layers, unsolved)
		n := int32(0)
		if g.nodes[i].met&(1<<goal) == 0 {
			for _, e := range g.out(i) {
				if e.kind&kind != 0 {
					n++
				}
			}
		}
		if left = append(left, n); n == 0 {
			queue = append(queue, int32(i))
		}
	}
	for q := 0; q < len(queue); q++ {
		i := queue[q]
		layers[i] = 0
		if g.nodes[i].met&(1<<goal) == 0 {
			for _, e := range g.out(int(i)) {
				if e.kind&kind != 0 {
					layers[i] = max(layers[i], layers[e.to]+1)
				}
			}
		}
		for e := g.nodes[i].into; e >= 0; e = g.edges[e].next {
			if p := g.edges[e].from; g.edges[e].kind&kind != 0 && left[p] > 0 { // a node meeting the goal was queued at 0
				if left[p]--; left[p] == 0 {
					queue = append(queue, p)
				}
			}
		}
	}
	g.layers[k][goal], g.left, g.queue = layers, left, queue
}

// slot is game row use's index in reached.
func (use graphUse) slot() int { return bits.TrailingZeros8(uint8(use)) - 1 }

// enter returns the start node for game row use, and adds to the
// task's schedule count the walked weight, on the row's edges, of every
// node the game reaches from it that no task of the row has counted —
// so the row counts each distinct node it reaches once, whichever shard
// reached it first, and its count is the same at every parallelism.
// Work-conserved nodes have no edges and count nothing.
func (sc *shardScratch) enter(use graphUse) int {
	g, start := sc.graph, sc.seed
	kind := use.kinds()
	k, seen := kindIndex(kind), g.reached[use.slot()]
	stack := append(sc.stack[:0], int32(start))
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !setBit(seen, i) {
			continue
		}
		for _, e := range g.out(int(i)) {
			if e.kind&kind == 0 {
				continue
			}
			sc.res.SchedulesChecked = satAdd(sc.res.SchedulesChecked, e.w[k])
			if atomic.LoadUint32(&seen[e.to>>5])&(1<<(e.to&31)) == 0 {
				stack = append(stack, e.to)
			}
		}
	}
	sc.stack = stack
	return start
}

// setBit sets node i's bit in the set words and reports whether it was
// clear: true for exactly one of any number of concurrent callers.
func setBit(words []uint32, i int32) bool {
	w, bit := &words[i>>5], uint32(1)<<(i&31)
	for {
		old := atomic.LoadUint32(w)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(w, old, old|bit) {
			return true
		}
	}
}
