package verify

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

// obligationDeps records which policy components each checker reads.
// The table is audited against the checker implementations, not
// guessed; when a checker changes what it calls, update both.
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
// checker calls p.Load directly, whatever the filter references.
var obligationDeps = map[ObligationID][]PolicyComponent{
	ObLemma1:              {CompFilter},
	ObStealSoundness:      {CompFilter, CompSteal},
	ObPotentialDecrease:   {CompLoad, CompFilter, CompSteal},
	ObFailureImpliesSucc:  {CompFilter, CompChoose, CompSteal},
	ObWorkConservSeq:      {CompFilter, CompChoose, CompSteal},
	ObWorkConservConc:     {CompFilter, CompChoose, CompSteal},
	ObChoiceIndependence:  {CompFilter, CompSteal}, //schedlint:allow depsaudit the checker calls Choose only to discard it: the verdict quantifies over all choices, so choose edits cannot change it
	ObReactivity:          {CompFilter, CompChoose, CompSteal},
	ObNoTaskLost:          {CompFilter, CompChoose, CompSteal, CompRescue},
	ObDegradedWastedCores: {CompFilter, CompChoose, CompSteal, CompRescue},
}

// ObligationDeps returns the policy components obligation id's checker
// consults, in a fixed order suitable for hashing. Panics on unknown
// obligations, like the checkers themselves.
func ObligationDeps(id ObligationID) []PolicyComponent {
	deps, ok := obligationDeps[id]
	if !ok {
		panic("verify: unknown obligation " + string(id))
	}
	out := make([]PolicyComponent, len(deps))
	copy(out, deps)
	return out
}
