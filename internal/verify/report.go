// Package verify is this repository's stand-in for the paper's Leon
// verification toolchain: it checks scheduling policies against the
// paper's proof obligations by exhaustive bounded model checking instead
// of deductive proof.
//
// Every lemma the paper states over "all machines" is checked over every
// machine of a statespace.Universe (all thread placements up to a bound,
// optionally with weighted tasks), and every statement about concurrent
// rounds is checked over every adversarial serialization of the round's
// steal operations. The obligations, in report order:
//
//   - Lemma 1 (Listing 2): an idle thief can steal whenever an overloaded
//     core exists, and its filter passes only overloaded cores.
//   - Steal soundness (§4.2): a steal admitted by the filter succeeds,
//     never empties the stealee, and preserves the thread population.
//   - Potential decrease (§4.3): every successful steal strictly
//     decreases the pairwise load imbalance d.
//   - Failure implies success (§4.3): a steal that fails re-validation is
//     always explained by an earlier successful steal in the same round.
//   - Work conservation, sequential (§3.2 in the §4.2 setting): from
//     every state, iterating sequential rounds reaches a state with no
//     idle core while an overloaded core exists; Bound is the worst N.
//   - Work conservation, concurrent (§3.2 in the §4.3 setting): the same
//     under every adversarial steal order — a game (see Game obligations)
//     whose solver finds the §4.3 greedy-buggy ping-pong automatically.
//   - Choice independence (§3.1): work conservation survives when the
//     adversary also picks the step-2 victim among the filtered cores.
//   - Reactivity (§1): every idle core gets work within a bounded number
//     of rounds under every adversarial schedule; Bound is that delay.
//   - No task lost (fail-stop faults): every task orphaned by a core
//     failure is re-homed by the rescue rule or the core's revival.
//   - Degraded wasted cores (fail-stop faults): after any fault script
//     the online cores restore the wasted-cores invariant, counting
//     stranded orphans as waiting work.
//
// # Checker contract
//
// An obligation is one row of the obligations table (deps.go): its ID,
// its per-state check — a method of the worker's shardScratch, never a
// closure built per task — the policy components the check reads, and
// whether it quantifies over the fault dimension or reads MaxRounds.
// The report order, the memoizer's keys and the depsaudit analyzer all
// read the same rows, so adding an obligation is one constant and one
// row. Every check is driven by the one shard loop, runShard, which owns
// the shard's Result, sets the task's state on the scratch (context,
// factory, Result, round bound; the check's own counters start at
// zero), counts the states, polls cancellation every 64 states and
// contains panics (a crashing checker or policy becomes an "aborted:
// checker panic" shard, never a dead process). A check is handed a
// machine that is its own: it may mutate it but must not retain it. It
// reports a violation through shardScratch.refute(rank, witness) with
// the rank it was handed, and returns false to end its shard, true to go
// on. Shards decide and the merge explains: a shard records only that it
// refuted and at which rank, the merge keeps the lowest rank — the
// refutation a sequential scan finds first — and then re-runs the check
// once with rendering on, over that rank's states up to the first
// refuted one, so only then is witness called (explain: on the calling
// goroutine, under a context that is never cancelled, containing panics
// as runShard does). A check's verdict on a machine must therefore
// depend on that machine alone. Checks that fan a single state out to
// many steal orders count each walked order through walk, which polls
// cancellation every 64 of them.
//
// # Steal orders
//
// The §4.3 obligations quantify over every serialization of a round's
// steals: n! orders on n cores. The verifier walks fewer, exactly
// (stealOrders, the one walk): a core whose selection kept no victim
// (Victim < 0) makes no steal, and its attempt returns before the
// executor looks at the machine or calls the policy. So all orders that
// differ only in where the no-op cores sit give the same successor
// machine and the same outcome for every attempt — the same
// PredecessorSuccess too, since a no-op record never succeeds and so
// never explains a failure — for every policy, stateful ones included:
// only the place of the no-op records in RoundResult.Attempts differs,
// and no check reads it. The walk visits one order per class, the k
// attempting cores in each of their k! orders followed by the no-op
// cores in ascending ID, and counts it as the n!/k! schedules it stands
// for, so SchedulesChecked and the ablation's violation counts are the
// full walk's.
//
// # Game obligations
//
// Work-conservation-concurrent, choice-independence and reactivity are
// reachability games — from every start state, every schedule the
// adversary picks reaches the goal — solved on one graph per shard task
// (gameGraph), with no recursion.
//
//   - Graph: the states the shard's start states reach, numbered in
//     discovery order by key (sched.Machine.AppendKey). A flat loop
//     expands each node once per shard, rebuilt from its key, keeping the
//     distinct successors of its walked orders; work-conserved nodes end
//     every game and are not expanded.
//   - Goals: work conservation, or per reactivity target core, the core
//     has work or no core is overloaded.
//   - Solver: one backward pass per goal (solve) gives a node meeting the
//     goal layer 0 and any other, once its successors are solved, 1 +
//     their largest layer — its worst-case rounds, the Bound. A node never
//     solved is refuted. Each pass covers only the nodes the graph gained
//     since the goal's last one, so a goal is solved once per shard.
//   - Lasso: a refuted start state's witness walks the first unsolved
//     successor in enumeration order until a node repeats, and prints the
//     cycle.
//
// SchedulesChecked counts each expanded node's walked orders once per
// shard: a refuted shard counts all its start states reach, and
// reactivity's targets share one count.
package verify

import (
	"fmt"
	"strings"
	"time"
)

// ObligationID names one proof obligation.
type ObligationID string

// The paper's proof obligations.
const (
	ObLemma1             ObligationID = "lemma1"
	ObStealSoundness     ObligationID = "steal-soundness"
	ObPotentialDecrease  ObligationID = "potential-decrease"
	ObFailureImpliesSucc ObligationID = "failure-implies-success"
	ObWorkConservSeq     ObligationID = "work-conservation-sequential"
	ObWorkConservConc    ObligationID = "work-conservation-concurrent"
	ObChoiceIndependence ObligationID = "choice-independence"
	ObReactivity         ObligationID = "reactivity"
)

// Fault-model obligations: graceful degradation under fail-stop core
// faults and hotplug (see internal/verify/faults.go). They quantify over
// the universe's fault dimension (statespace.Universe.MaxFaults) and are
// vacuously true when it is zero.
const (
	// ObNoTaskLost: every task orphaned by a core failure is re-homed
	// onto an online core (by the policy's rescue rule or by the core's
	// revival) within MaxRounds rounds of the failure.
	ObNoTaskLost ObligationID = "no-task-lost"
	// ObDegradedWastedCores: the wasted-cores invariant restricted to
	// online cores — after any fail/revive event, no online core stays
	// idle while another online core is overloaded or orphan work sits
	// stranded offline, within MaxRounds rounds.
	ObDegradedWastedCores ObligationID = "degraded-wasted-cores"
)

// Result is the outcome of checking one obligation. The json tags define
// the deterministic wire encoding (see ReportJSON): field order follows
// the struct declaration, and fields that are zero on passing sequential
// obligations (witness, schedule count, bound, aborted) are omitted.
type Result struct {
	// ID identifies the obligation.
	ID ObligationID `json:"id"`
	// Passed reports whether the obligation holds over the whole
	// universe.
	Passed bool `json:"passed"`
	// Aborted reports that the check was cut short by context
	// cancellation: Passed is false but nothing was refuted, and the
	// counts below cover only the part of the universe visited.
	Aborted bool `json:"aborted,omitempty"`
	// Witness describes the first violating state/schedule when the
	// obligation fails; empty otherwise.
	Witness string `json:"witness,omitempty"`
	// StatesChecked counts the machine states examined.
	StatesChecked int `json:"states_checked"`
	// SchedulesChecked counts (state, steal-order) pairs covered by the
	// concurrent obligations; zero for sequential ones. It saturates at
	// math.MaxInt rather than wrap.
	SchedulesChecked int `json:"schedules_checked,omitempty"`
	// Bound carries the obligation's quantitative finding, when one
	// exists: the worst-case N for the work-conservation obligations,
	// zero otherwise.
	Bound int `json:"bound,omitempty"`

	// order is the refutation's global enumeration rank (the index of
	// its thread-count vector in statespace.Universe.Enumerate order).
	// The sharded driver merges per-shard refutations by keeping the
	// lowest order and renders the witness at it, so parallel runs report
	// the same witness a sequential scan finds first. Meaningful only
	// when Passed is false and Aborted is false.
	order int
}

// String renders a single-line summary.
func (r Result) String() string {
	status := "PASS"
	switch {
	case r.Aborted:
		status = "ABORTED"
	case !r.Passed:
		status = "FAIL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %-28s states=%d", status, r.ID, r.StatesChecked)
	if r.SchedulesChecked > 0 {
		fmt.Fprintf(&b, " schedules=%d", r.SchedulesChecked)
	}
	if r.Bound > 0 {
		fmt.Fprintf(&b, " worst-N=%d", r.Bound)
	}
	if r.Witness != "" {
		fmt.Fprintf(&b, "\n    witness: %s", r.Witness)
	}
	return b.String()
}

// Report aggregates obligation results for one policy.
type Report struct {
	// Policy is the verified policy's name.
	Policy string `json:"policy"`
	// Universe describes the bounded state space the checks ran over.
	Universe string `json:"universe"`
	// Results holds one entry per checked obligation.
	Results []Result `json:"results"`

	// Elapsed is telemetry beside the report, parallel to Results on a
	// report PolicyContext returned and nil on any other: the time the
	// obligation's shards took, summed over the shards. Shards of
	// different obligations interleave on one worker pool, so this is
	// checker busy time, not a span on the clock. It is not part of the
	// report: it never reaches ReportJSON, a memo key or a WAL frame.
	Elapsed []time.Duration `json:"-"`
}

// Passed reports whether every obligation holds.
func (r *Report) Passed() bool {
	for _, res := range r.Results {
		if !res.Passed {
			return false
		}
	}
	return true
}

// Aborted returns the IDs of obligations cut short by cancellation.
func (r *Report) Aborted() []ObligationID {
	var ids []ObligationID
	for _, res := range r.Results {
		if res.Aborted {
			ids = append(ids, res.ID)
		}
	}
	return ids
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	// Conclusive refutations outrank cancellation: a policy refuted
	// before the cut is refuted, however many obligations were left
	// unfinished.
	var refuted []ObligationID
	for _, res := range r.Results {
		if !res.Passed && !res.Aborted {
			refuted = append(refuted, res.ID)
		}
	}
	aborted := r.Aborted()
	verdict := "WORK-CONSERVING (all obligations hold over the bounded universe)"
	switch {
	case len(refuted) > 0 && len(aborted) > 0:
		verdict = fmt.Sprintf("NOT PROVEN: failed %v (cancelled with %v unfinished)", refuted, aborted)
	case len(refuted) > 0:
		verdict = fmt.Sprintf("NOT PROVEN: failed %v", refuted)
	case len(aborted) > 0:
		verdict = fmt.Sprintf("ABORTED: cancelled with obligations unfinished %v", aborted)
	}
	fmt.Fprintf(&b, "policy %s over %s\n", r.Policy, r.Universe)
	for _, res := range r.Results {
		fmt.Fprintf(&b, "  %s\n", res)
	}
	fmt.Fprintf(&b, "  verdict: %s", verdict)
	return b.String()
}
