package verify

import (
	"context"
	"runtime"
	"time"

	"repro/internal/sched"
	"repro/internal/statespace"
)

// Version identifies the checker's semantics for content-addressed
// memoization: it is one ingredient of every schedverifyd cache key, so
// cached verdicts can never be replayed across incompatible checkers.
// Bump it whenever any obligation's verdicts, counters, bounds or
// witness text can change — shard-merge changes included, since reports
// are defined to be byte-identical across parallelism levels.
const Version = "optsched-verify/8"

// DefaultMaxRounds is the cap on sequential convergence loops that a
// zero Config.MaxRounds selects — the one statement of that default for
// the verifier, the daemon's cache keys and every front end's flag.
const DefaultMaxRounds = 1000

// Config parameterizes a verification run.
type Config struct {
	// Universe is the bounded state space to quantify over.
	Universe statespace.Universe
	// Obligations selects which obligations to check; nil means all.
	Obligations []ObligationID
	// MaxRounds caps sequential convergence loops (safety valve for
	// non-converging policies). Zero means DefaultMaxRounds.
	MaxRounds int
	// Sequential forces the obligations (and their shards) to run one
	// after another on the calling goroutine instead of on the worker
	// pool — for deterministic profiling, debugging, and callers whose
	// factories are not safe for concurrent calls. The universe is
	// partitioned into exactly the same shards either way, so a
	// Sequential run's verdicts, counters and witnesses are identical
	// to every parallel run's.
	Sequential bool
	// Parallelism is the worker-pool size shared by all selected
	// obligations: at most this many shard checks run concurrently.
	// Zero means GOMAXPROCS. Ignored when Sequential is set. The level
	// only changes wall-clock time, never results — see Sequential.
	Parallelism int
}

// DefaultUniverse is the bounded universe used when a Config leaves it
// zero: 3 cores, up to 3 threads per core and 5 in total, including
// unscheduled states — it contains every machine discussed in the paper
// (the 0/1/2 counterexample, the two-thieves conflict) while keeping the
// adversarial game graph small enough for exhaustive exploration.
func DefaultUniverse() statespace.Universe {
	return statespace.Universe{
		Cores:              3,
		MaxPerCore:         3,
		MaxTotal:           5,
		IncludeUnscheduled: true,
	}
}

// PolicyContext verifies the policy produced by f against the paper's
// proof obligations over the configured bounded universe and returns the
// full report — the library's analogue of running the paper's Leon
// pipeline on a DSL policy. It is the verifier's one fan-out: each
// selected obligation's universe is partitioned into shardCount disjoint
// slices (statespace.Enumerator.EnumerateShardRank), and all (obligation,
// shard) tasks drain through one worker pool of cfg.Parallelism
// goroutines — so a single expensive obligation saturates every worker
// instead of hogging one goroutine while the others finish early — or,
// under cfg.Sequential, run inline in the same order. The obligations
// that quantify over concurrent rounds read one game graph, built once
// per call as a task of the same fan-out (fanOut). Because pooled
// shard checks run concurrently, f must then be safe for concurrent
// calls; every registered and DSL-compiled factory is (see Factory).
//
// Neither the parallelism level nor the host changes the report: the
// shard partition is a constant, every shard runs to its own first
// refutation or to exhaustion, merging keeps the refutation a sequential
// whole-universe scan would find first, and only then, on the calling
// goroutine, is its witness rendered. Verdicts, counters and witnesses
// are byte-identical from Sequential through any Parallelism, at any
// GOMAXPROCS.
//
// On cancellation the returned report is partial — obligations cut short
// are marked failed with an "aborted" witness — and the returned error
// is ctx.Err(). A nil error means every selected obligation ran to
// completion (even if ctx was cancelled just after the suite finished).
func PolicyContext(ctx context.Context, name string, f Factory, cfg Config) (*Report, error) {
	u := cfg.Universe
	if u.Cores == 0 {
		u = DefaultUniverse()
	}
	ids := cfg.Obligations
	if ids == nil {
		ids = AllObligations()
	}
	for _, id := range ids {
		mustRow(id)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	workers := 1
	if !cfg.Sequential {
		workers = cfg.Parallelism
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	scratch := takeScratch(min(workers, len(ids)*shardCount))
	for _, sc := range scratch {
		sc.ctx, sc.f, sc.maxRounds = ctx, f, maxRounds
	}
	parts, took, g := fanOut(u, ids, scratch)
	rep := &Report{
		Policy:   name,
		Universe: u.String(),
		Results:  make([]Result, len(ids)),
		Elapsed:  make([]time.Duration, len(ids)),
	}
	graphRows := 0
	for _, id := range ids {
		if row(id).graph != 0 {
			graphRows++
		}
	}
	sc, rendering := scratch[0], false // the renders' scratch, taken for the first refutation
	for i, id := range ids {
		ob := row(id)
		lo, hi := i*shardCount, (i+1)*shardCount
		res := &rep.Results[i]
		*res, rep.Elapsed[i] = mergeResults(id, parts[lo:hi], took[lo:hi])
		if ob.graph != 0 {
			// The rows that shared the build share its time.
			share := g.built / time.Duration(graphRows)
			if graphRows--; graphRows == 0 {
				share = g.built
			}
			g.built -= share
			rep.Elapsed[i] += share
			if g.cut != "" {
				*res = g.cutResult(id, ob.graph)
			}
		}
		if res.Passed || res.Aborted {
			continue
		}
		if !rendering {
			// The fan-out finished, so the report carries every witness
			// even if ctx is cancelled now: the renders poll a context
			// that is never cancelled.
			sc.ctx, rendering = context.WithoutCancel(ctx), true
			if g != nil && sc.graph != g {
				g.attach(sc)
			}
		}
		sc.explain(ob, u, res, &parts[lo]) // the merged shards' slots are spent
	}
	if g != nil {
		graphPool.Put(g)
	}
	for _, sc := range scratch {
		putScratch(sc)
	}
	return rep, rep.abortErr(ctx)
}

// fanOut runs the call's checks on its worker scratches, as one task
// list the workers claim in order: every per-state row's shard tasks,
// obligation-major; then, when a row in ids reads one, the build of the
// call's game graph; then the graph rows' shard tasks. Each shard task
// owns its slot of parts and runs on the scratch of the worker that
// claimed it. A worker that claims a graph row's task while the build is
// under way helps build it first (gameGraph.help), so no worker idles;
// the build's time, the builder's and the helpers', is the graph's. When the
// build was cut short the graph rows' tasks run nothing, and the merge
// reports the cut.
func fanOut(u statespace.Universe, ids []ObligationID, scratch []*shardScratch) ([]Result, []time.Duration, *gameGraph) {
	parts := make([]Result, len(ids)*shardCount)
	took := make([]time.Duration, len(parts))
	var use graphUse
	perState := 0 // the per-state rows' tasks, which come first
	for _, id := range ids {
		if use |= row(id).graph; row(id).graph == 0 {
			perState += shardCount
		}
	}
	var g *gameGraph
	tasks := len(parts)
	if use != 0 {
		g = graphPool.Get().(*gameGraph)
		g.done = false
		tasks++
	}
	sched.ForEach(tasks, len(scratch), func(w, i int) bool {
		sc := scratch[w]
		graph := g != nil && i >= perState
		if graph {
			if i == perState {
				g.build(u, 0, 1, scratch, w, use)
				return true
			}
			i -= perState + 1 // the graph rows' tasks, numbered from 0
			if g.help(sc, w); g.cut != "" {
				return true
			}
			if sc.graph != g {
				g.attach(sc)
			}
		}
		j := rowOf(ids, graph, i/shardCount)
		t := j*shardCount + i%shardCount
		took[t] = sc.runShard(row(ids[j]), u, i%shardCount, &parts[t])
		return true
	})
	return parts, took, g
}

// rowOf returns the index in ids of the k-th graph row when graph is
// set, of the k-th per-state row otherwise.
func rowOf(ids []ObligationID, graph bool, k int) int {
	for j, id := range ids {
		if (row(id).graph != 0) == graph {
			if k == 0 {
				return j
			}
			k--
		}
	}
	panic("verify: no such row")
}

// RunObligation checks a single obligation under cfg and returns its
// merged Result — the per-obligation entry point the incremental
// verification service (internal/service) memoizes. It is PolicyContext
// on the one obligation (cfg.Obligations is ignored): the same shard
// partition, the same deterministic merge, so the Result is byte-for-byte
// the entry PolicyContext would put in a full report. Panics on unknown
// obligations, like PolicyContext.
func RunObligation(ctx context.Context, id ObligationID, f Factory, cfg Config) Result {
	cfg.Obligations = []ObligationID{id}
	rep, _ := PolicyContext(ctx, "", f, cfg)
	return rep.Results[0]
}

// abortErr returns ctx's error iff cancellation actually cut an
// obligation short; a suite that completed just before cancellation is
// a full result and reports no error.
func (r *Report) abortErr(ctx context.Context) error {
	if len(r.Aborted()) == 0 {
		return nil
	}
	return ctx.Err()
}
