package policy

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dsl"
	"repro/internal/sched"
	"repro/internal/topology"
)

// delta2RescueDSL is the committed source of delta2-rescue; the registry
// factory compiles it directly, so name and source submissions are the
// same policy by construction.
const delta2RescueDSL = `policy delta2_rescue {
    load   = self.ready.size + self.current.size
    filter = stealee.load - self.load >= 2
    steal  = 1
    choose = first
    rescue = min_load
}`

// mustParseDSL parses registry-committed DSL source once, at
// registration, into a factory that only compiles — and dsl.Compile
// builds the program once, on the first call, then hands out its shared
// instance: verifiers call a factory per state and per game node. The
// source is code, not input, so failure is a programming error.
func mustParseDSL(src string) Factory {
	ast, err := dsl.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("policy: registry DSL does not compile: %v", err))
	}
	return func() sched.Policy { return dsl.Compile(ast) }
}

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
	// Factory). Exactly one of Factory and TopologyFactory must be set.
	Factory Factory
	// TopologyFactory builds a fresh instance of a policy that needs a
	// machine topology.
	TopologyFactory func(*topology.Topology) sched.Policy
	// Provenance classifies the policy's verification status.
	Provenance Provenance
	// Doc is a one-line description for listings.
	Doc string
	// DSL, when set, is DSL source the registrant asserts to be
	// behaviorally identical to the Go implementation — same load,
	// filter, choice and steal semantics over every machine state. The
	// incremental verification service then identifies the policy by its
	// canonical compiled form (see ComponentForms), so submitting this
	// spec by name and submitting equivalent DSL source share one cache
	// entry. Leave it empty unless the equivalence is test-enforced:
	// a wrong assertion here replays another policy's verdicts.
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
)

// Register adds a policy spec to the registry. It panics on duplicate
// names or structurally invalid specs — registration is code, not input.
func Register(s Spec) {
	if s.Name == "" {
		panic("policy: Register with empty Name")
	}
	if (s.Factory == nil) == (s.TopologyFactory == nil) {
		panic(fmt.Sprintf("policy: Register(%q) must set exactly one of Factory and TopologyFactory", s.Name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("policy: Register(%q) called twice", s.Name))
	}
	registry[s.Name] = s
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
	return NewWithTopology(name, nil)
}

// NewWithTopology returns an instance of the named policy, under New's
// rule, built for the given topology (nil = DefaultTopology for policies
// that need one; topology-free policies ignore it).
func NewWithTopology(name string, top *topology.Topology) (sched.Policy, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
	}
	return s.New(top), nil
}

func init() {
	// The DSL equivalences below are test-enforced: delta2 by
	// TestSpecDSLEquivalence (this package), delta2-gen additionally by
	// TestGeneratedDelta2MatchesEverything. They let schedverifyd share
	// cache entries between name submissions and equivalent DSL source.
	// NewDelta2's load is NThreads = ready.size + current.size; the DSL
	// spells it out because that is the committed delta2.pol form.
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
	Register(Spec{
		Name:       "greedy-buggy",
		Factory:    shared(NewGreedyBuggy()),
		Provenance: ProvenanceRefuted,
		Doc:        "the §4.3 counterexample: concurrent rounds livelock (ping-pong)",
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
	Register(Spec{
		Name:       "random-choice",
		Factory:    func() sched.Policy { return NewRandomChoice(1) },
		Provenance: ProvenanceProved,
		Doc:        "Delta2 with a pseudo-random step-2 choice (choice independence demo)",
	})
	Register(Spec{
		Name:       "null",
		Factory:    shared(NewNull()),
		Provenance: ProvenanceBaseline,
		Doc:        "no balancing at all: the E6 lower bound",
	})
	Register(Spec{
		Name:       "delta1-aggressive",
		Factory:    shared(NewDelta1Aggressive()),
		Provenance: ProvenanceRefuted,
		Doc:        "over-eager gap>=1 filter: unbounded steal sequences",
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
	// online core. The factory compiles the DSL itself, so the Spec.DSL
	// equivalence is exact by construction; the policy exists as the
	// PROVE side of the fault obligations (no-task-lost,
	// degraded-wasted-cores), with plain delta2 as the REFUTE side.
	Register(Spec{
		Name:       "delta2-rescue",
		Factory:    mustParseDSL(delta2RescueDSL),
		Provenance: ProvenanceProved,
		Doc:        "delta2 plus a min_load rescue rule: orphans of failed cores are re-homed",
		DSL:        delta2RescueDSL,
	})
	Register(Spec{
		Name:            "numa-aware",
		TopologyFactory: func(top *topology.Topology) sched.Policy { return NewNUMAAware(top) },
		Provenance:      ProvenanceProved,
		Doc:             "Delta2 with a locality-preferring step-2 choice over the machine topology",
	})
}
