package verify

import (
	"fmt"

	"repro/internal/sched"
)

// PolicyComponent names one of the four parts of the paper's policy
// abstraction (sched.Policy): the load metric, the step-1 filter, the
// step-2 choice and the step-3 steal sizing. The incremental
// verification service hashes a policy per component, and each
// obligation's cache key covers only the components its checker
// consults — so an edit to one clause of a DSL policy invalidates
// exactly the obligations whose semantics it can change.
type PolicyComponent string

// The components in canonical order, the order the memoizer hashes in.
const (
	CompLoad   PolicyComponent = "load"
	CompFilter PolicyComponent = "filter"
	CompChoose PolicyComponent = "choose"
	CompSteal  PolicyComponent = "steal"
	CompRescue PolicyComponent = "rescue"
)

// obligation is one row of the verifier's one table of static checks:
// everything the driver, the memoizer and the depsaudit analyzer know
// about a proof obligation.
type obligation struct {
	id ObligationID
	// check examines one start state, on the running task's scratch:
	// an enumerated machine, or for a graph row its node of the call's
	// game graph (see the package doc's checker contract).
	check func(sc *shardScratch, rank int, m *sched.Machine) bool
	// deps are the policy components check reads, in canonical order:
	// the components the obligation's cache key covers.
	deps []PolicyComponent
	// faults: check quantifies over the universe's fault dimension;
	// runShard zeroes MaxFaults for every other row.
	faults bool
	// rounds: check reads Config.MaxRounds, so the bound is part of the
	// verdict's identity (ReadsMaxRounds).
	rounds bool
	// graph: what check reads of the call's game graph, which
	// PolicyContext builds once for every row that reads it; zero for a
	// per-state row.
	graph graphUse
}

// obligations is the table, in report order. The deps are audited
// against the checks, not guessed: the depsaudit analyzer walks each
// row's check down to the policy methods it reaches and fails on any
// disagreement.
//
//   - lemma1 evaluates only CanSteal (Overloaded/Idle are machine-state
//     predicates, not policy calls).
//   - steal-soundness runs CanSteal plus the locked Steal, which
//     re-validates the filter and sizes via StealCount.
//   - potential-decrease additionally computes PairwiseImbalance, which
//     is defined over the policy's own Load.
//   - choice-independence quantifies over every filter-passing victim —
//     the policy's Choose is called but its answer is discarded (that is
//     the obligation's whole point), so Choose is not a dependency.
//   - the round-based obligations (failure-implies-success, both
//     work-conservation forms, reactivity) execute full rounds:
//     Select (filter + choose) then Steal (filter + steal count).
//   - the fault obligations (no-task-lost, degraded-wasted-cores) run
//     full rounds between fault events and additionally invoke the
//     policy's rescue rule on every core failure, so they depend on
//     every component but the bare load metric.
//
// Load does not appear in most rows because DSL component hashing is
// closed over load references: a filter that mentions `x.load` embeds
// the load clause in its own canonical form (see dsl.ComponentForm), so
// a load edit flows into every component that can observe it — and only
// those. potential-decrease names CompLoad explicitly because its
// check calls p.Load directly, whatever the filter references.
var obligations = [...]obligation{
	{id: ObLemma1, check: (*shardScratch).lemma1, deps: []PolicyComponent{CompFilter}},
	{id: ObStealSoundness, check: (*shardScratch).stealSoundness, deps: []PolicyComponent{CompFilter, CompSteal}},
	{id: ObPotentialDecrease, check: (*shardScratch).potentialDecrease, deps: []PolicyComponent{CompLoad, CompFilter, CompSteal}},
	{id: ObFailureImpliesSucc, check: (*shardScratch).failureImpliesSuccess, deps: []PolicyComponent{CompFilter, CompChoose, CompSteal}, graph: seedFacts},
	{id: ObWorkConservSeq, check: (*shardScratch).workConservationSequential, deps: []PolicyComponent{CompFilter, CompChoose, CompSteal}, rounds: true},
	{id: ObWorkConservConc, check: (*shardScratch).workConservationConcurrent, deps: []PolicyComponent{CompFilter, CompChoose, CompSteal}, graph: orderGame},
	{id: ObChoiceIndependence, check: (*shardScratch).choiceIndependence, deps: []PolicyComponent{CompFilter, CompSteal}, graph: choiceGame}, //schedlint:allow depsaudit the check calls Choose only to discard it: the verdict quantifies over all choices, so choose edits cannot change it
	{id: ObReactivity, check: (*shardScratch).reactivity, deps: []PolicyComponent{CompFilter, CompChoose, CompSteal}, graph: targetGames},
	{id: ObNoTaskLost, check: (*shardScratch).noTaskLost, deps: []PolicyComponent{CompFilter, CompChoose, CompSteal, CompRescue}, faults: true, rounds: true},
	{id: ObDegradedWastedCores, check: (*shardScratch).degradedWastedCores, deps: []PolicyComponent{CompFilter, CompChoose, CompSteal, CompRescue}, faults: true, rounds: true},
}

// row returns id's row, or nil for an unknown obligation.
func row(id ObligationID) *obligation {
	for i := range obligations {
		if obligations[i].id == id {
			return &obligations[i]
		}
	}
	return nil
}

// mustRow is row, panicking on an unknown obligation.
func mustRow(id ObligationID) *obligation {
	ob := row(id)
	if ob == nil {
		panic(fmt.Sprintf("verify: unknown obligation %q", id))
	}
	return ob
}

// AllObligations lists every obligation in report order.
func AllObligations() []ObligationID {
	ids := make([]ObligationID, len(obligations))
	for i := range obligations {
		ids[i] = obligations[i].id
	}
	return ids
}

// KnownObligation reports whether id names a checkable obligation.
func KnownObligation(id ObligationID) bool { return row(id) != nil }

// ObligationDeps returns the policy components obligation id's check
// consults, in a fixed order suitable for hashing. The slice is the
// table's own and read-only; its capacity ends at its length, so an
// append to it copies rather than writing into the table. Panics on
// unknown obligations, like the checkers themselves.
func ObligationDeps(id ObligationID) []PolicyComponent {
	deps := mustRow(id).deps
	return deps[:len(deps):len(deps)]
}

// ReadsMaxRounds reports whether obligation id's verdict depends on
// Config.MaxRounds — the sequential convergence search's give-up bound,
// and the fault obligations' re-home and recovery deadline — so the
// bound is part of its identity. Panics on unknown obligations.
func ReadsMaxRounds(id ObligationID) bool { return mustRow(id).rounds }
