package policy

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dsl"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Factory constructs a policy instance. Policies carrying per-round
// caches (RoundObservers) or chooser state are stateful, so every
// consumer that needs isolation — each verifier run, each simulated
// machine, each executor worker set — must construct its own instance
// through a Factory, and the Factory must return a fresh one. A
// stateless policy has nothing to isolate: its Factory may hand out one
// shared instance, as a DSL-compiled policy without a random chooser
// does (dsl.Compile) and as the registry's stateless natives do. A
// caller that means to mutate an instance must therefore build its own
// (NewDelta2 and friends), never change one a Factory returned.
type Factory func() sched.Policy

// shared is the Factory of a stateless policy: it hands out p itself on
// every call. Verifiers call a factory per state and per game node, so a
// fresh empty struct per call is pure allocation.
func shared(p sched.Policy) Factory {
	return func() sched.Policy { return p }
}

// Provenance classifies how a registered policy relates to the paper's
// verification story. It is informational metadata for listings and docs;
// nothing dispatches on it.
type Provenance string

const (
	// ProvenanceProved marks policies that pass every proof obligation
	// over the default bounded universe.
	ProvenanceProved Provenance = "proved"
	// ProvenanceRefuted marks the paper's counterexamples: policies the
	// checker refutes with a concrete witness.
	ProvenanceRefuted Provenance = "refuted"
	// ProvenanceBaseline marks measurement baselines (e.g. the null
	// balancer) that are trivially safe but not work-conserving.
	ProvenanceBaseline Provenance = "baseline"
	// ProvenanceGenerated marks policies emitted by the DSL code
	// generator and committed to the tree.
	ProvenanceGenerated Provenance = "generated"
)

// Spec describes one registered policy: how to build it plus the metadata
// the facade and the command-line tools surface in listings.
type Spec struct {
	// Name is the registry key (e.g. "delta2").
	Name string
	// Factory builds an instance of a topology-free policy — a fresh one
	// if the policy is stateful, possibly a shared one if it is not (see
	// Factory). Set exactly one of Factory and TopologyFactory, or
	// neither and DSL alone, which Register compiles into the Factory.
	Factory Factory
	// TopologyFactory builds a fresh instance of a policy that needs a
	// machine topology.
	TopologyFactory func(*topology.Topology) sched.Policy
	// Provenance classifies the policy's verification status.
	Provenance Provenance
	// Doc is a one-line description for listings.
	Doc string
	// DSL, when set, is the policy's DSL source. It is either the policy
	// itself — a spec with no factory, which Register compiles — or a
	// form the registrant asserts to be behaviorally identical to a Go
	// implementation (delta2, delta2-gen): same load, filter, choice,
	// steal and rescue semantics over every machine state. Either way the
	// incremental verification service identifies the policy by its
	// canonical compiled form (see ComponentForms), so submitting this
	// spec by name and submitting equivalent DSL source share one cache
	// entry. Pair it with a Factory only if the equivalence is
	// test-enforced (TestSpecDSLEquivalence): a wrong assertion here
	// replays another policy's verdicts.
	DSL string
}

// New builds an instance from the spec, under Factory's rule: fresh for a
// stateful policy, possibly shared for a stateless one. A nil topology
// selects DefaultTopology for topology-needing policies and is ignored
// otherwise.
func (s Spec) New(top *topology.Topology) sched.Policy {
	if s.NeedsTopology() {
		if top == nil {
			top = DefaultTopology()
		}
		return s.TopologyFactory(top)
	}
	return s.Factory()
}

// NeedsTopology reports whether construction requires a topology; New
// falls back to DefaultTopology when the caller supplies none.
func (s Spec) NeedsTopology() bool { return s.TopologyFactory != nil }

// DefaultTopology is the topology used when a topology-needing policy is
// constructed without one: 2 NUMA nodes × 4 cores, the smallest machine
// on which locality preferences are observable.
func DefaultTopology() *topology.Topology { return topology.NUMA(2, 4) }

var (
	registryMu sync.RWMutex
	registry   = map[string]Spec{}
	// registeredForms maps each registered DSL source to its component
	// forms, computed once by Register: by-name submissions ask for them
	// on every request.
	registeredForms = map[string]map[string]string{}
)

// Register adds a policy spec to the registry, parsing its DSL once: a
// spec that sets only DSL gets a Factory that compiles the parsed source
// (dsl.Compile builds the program once and shares it, a random chooser
// aside), and every DSL spec's component forms are kept for
// ComponentForms. It panics on duplicate names, structurally invalid
// specs and DSL that does not parse — registration is code, not input.
func Register(s Spec) {
	if s.Name == "" {
		panic("policy: Register with empty Name")
	}
	var forms map[string]string
	if s.DSL != "" {
		ast, err := dsl.Parse(s.DSL)
		if err != nil {
			panic(fmt.Sprintf("policy: Register(%q): DSL does not compile: %v", s.Name, err))
		}
		forms = dsl.ComponentForms(ast)
		if s.Factory == nil && s.TopologyFactory == nil {
			s.Factory = func() sched.Policy { return dsl.Compile(ast) }
		}
	}
	if (s.Factory == nil) == (s.TopologyFactory == nil) {
		panic(fmt.Sprintf("policy: Register(%q) must set exactly one of Factory and TopologyFactory, or DSL alone", s.Name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("policy: Register(%q) called twice", s.Name))
	}
	registry[s.Name] = s
	if forms != nil {
		registeredForms[s.DSL] = forms
	}
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Specs lists every registered spec, sorted by name — the deterministic
// listing the facade and the CLIs render.
func Specs() []Spec {
	registryMu.RLock()
	defer registryMu.RUnlock()
	specs := make([]Spec, 0, len(registry))
	for _, s := range registry {
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// Names lists the registered policy names, sorted.
func Names() []string {
	specs := Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// New returns an instance of the named built-in policy — fresh if it is
// stateful, possibly shared if it is not (see Factory) — constructing
// topology-needing policies over DefaultTopology.
func New(name string) (sched.Policy, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
	}
	return s.New(nil), nil
}

func init() {
	// delta2 and delta2-gen are natives with a test-enforced DSL form
	// (TestSpecDSLEquivalence; delta2-gen also
	// TestGeneratedDelta2MatchesEverything), so name submissions and
	// equivalent DSL source share cache entries. Every DSL spec spells
	// load as delta2.pol does, NThreads = ready.size + current.size, so
	// specs share delta2's cells wherever their clauses agree.
	Register(Spec{
		Name:       "delta2",
		Factory:    shared(NewDelta2()),
		Provenance: ProvenanceProved,
		Doc:        "Listing 1's simple balancer: steal one task across a load gap >= 2",
		DSL: `policy delta2 {
    load   = self.ready.size + self.current.size
    filter = stealee.load - self.load >= 2
    steal  = 1
    choose = first
}`,
	})
	Register(Spec{
		Name:       "weighted",
		Factory:    shared(NewWeighted()),
		Provenance: ProvenanceProved,
		Doc:        "niceness-weighted balancer over per-task load weights",
	})
	// greedy-buggy is the §4.3 counterexample: any core may steal from an
	// overloaded one, whatever its own load. On the 0/1/2 machine cores 0
	// and 1 both chase core 2 (max_load); if core 1 wins, the next round
	// can mirror the state, and the task ping-pongs between two busy
	// cores while core 0 starves — a steal between loads 1 and 2 does not
	// decrease the potential. internal/verify finds the cycle (E3).
	Register(Spec{
		Name:       "greedy-buggy",
		Provenance: ProvenanceRefuted,
		Doc:        "the §4.3 counterexample: concurrent rounds livelock (ping-pong)",
		DSL: `policy greedy_buggy {
    load   = self.ready.size + self.current.size
    filter = stealee.load >= 2
    steal  = 1
    choose = max_load
}`,
	})
	Register(Spec{
		Name:       "cfs-group-buggy",
		Factory:    func() sched.Policy { return NewCFSGroupBuggy() },
		Provenance: ProvenanceRefuted,
		Doc:        "Lozi et al.'s group-imbalance bug: group averages hide idle cores",
	})
	Register(Spec{
		Name:       "hierarchical",
		Factory:    func() sched.Policy { return NewHierarchical() },
		Provenance: ProvenanceProved,
		Doc:        "§5 two-level balancer: steal within the group, then across",
	})
	// random-choice is delta2 with a deterministic xorshift64 step-2
	// choice: even an arbitrary choice cannot break work conservation
	// while the filter is sound. dsl.Compile hands out a fresh instance,
	// seeded from the source, per call.
	Register(Spec{
		Name:       "random-choice",
		Provenance: ProvenanceProved,
		Doc:        "Delta2 with a pseudo-random step-2 choice (choice independence demo)",
		DSL: `policy random_choice {
    load   = self.ready.size + self.current.size
    filter = stealee.load - self.load >= 2
    steal  = 1
    choose = random(1)
}`,
	})
	// null is the no-balancing baseline: trivially safe, maximally
	// non-work-conserving (experiment E6's lower bound). Its load is the
	// parser's default, self.nthreads.
	Register(Spec{
		Name:       "null",
		Provenance: ProvenanceBaseline,
		Doc:        "no balancing at all: the E6 lower bound",
		DSL: `policy null {
    filter = false
    steal  = 0
}`,
	})
	// delta1-aggressive steals across any gap of at least 1: it swaps a
	// queued task between a load-0 and a load-1 core (0/1 → 1/0 → 0/1
	// ...), so its steals do not decrease the potential and it fails the
	// bounded-successes obligation although it satisfies Lemma 1.
	Register(Spec{
		Name:       "delta1-aggressive",
		Provenance: ProvenanceRefuted,
		Doc:        "over-eager gap>=1 filter: unbounded steal sequences",
		DSL: `policy delta1_aggressive {
    load   = self.ready.size + self.current.size
    filter = stealee.load - self.load >= 1 && stealee.ready.size > 0
    steal  = 1
    choose = first
}`,
	})
	// delta2-gen is the DSL code-generation backend's output for
	// Listing 1 (internal/dsl/testdata/delta2.pol), committed as
	// gen_delta2.go and kept behaviorally identical to delta2 by
	// TestGeneratedDelta2MatchesEverything.
	Register(Spec{
		Name:       "delta2-gen",
		Factory:    shared(&Delta2Gen{}),
		Provenance: ProvenanceGenerated,
		Doc:        "Listing 1 as emitted by the DSL Go backend (scheddsl -gen)",
		// testdata/delta2.pol, the source gen_delta2.go was generated
		// from. Differs from delta2 only in choose, so the two specs
		// share cache entries for every choose-independent obligation.
		DSL: `policy delta2_gen {
    load   = self.ready.size + self.current.size
    filter = stealee.load - self.load >= 2
    steal  = 1
    choose = max_load
}`,
	})
	// delta2-rescue is delta2 plus a rescue rule for fail-stop core
	// faults: orphans of a failed core are adopted by the least-loaded
	// online core. It exists as the PROVE side of the fault obligations
	// (no-task-lost, degraded-wasted-cores), with plain delta2 as the
	// REFUTE side.
	Register(Spec{
		Name:       "delta2-rescue",
		Provenance: ProvenanceProved,
		Doc:        "delta2 plus a min_load rescue rule: orphans of failed cores are re-homed",
		DSL: `policy delta2_rescue {
    load   = self.ready.size + self.current.size
    filter = stealee.load - self.load >= 2
    steal  = 1
    choose = first
    rescue = min_load
}`,
	})
	Register(Spec{
		Name:            "numa-aware",
		TopologyFactory: func(top *topology.Topology) sched.Policy { return NewNUMAAware(top) },
		Provenance:      ProvenanceProved,
		Doc:             "Delta2 with a locality-preferring step-2 choice over the machine topology",
	})
}
