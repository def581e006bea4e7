// Package optsched is a Go reproduction of "Towards Proving Optimistic
// Multicore Schedulers" (Lepers et al., HotOS 2017): a multicore
// scheduler model built on the paper's three-step load-balancing
// abstraction (Filter → Choose → Steal), a bounded model checker that
// stands in for the paper's Leon verifier, a policy DSL with execution
// and code-generation backends, a discrete-event simulator reproducing
// the wasted-cores motivation, and a real work-stealing executor running
// the verified protocol.
//
// This top-level package is the curated public surface. The session API
// is the Cluster facade: configure one (policy, topology, backend)
// triple with functional options, then run any scenario on any
// execution substrate and verify the policy's proof obligations —
//
//	c, err := optsched.New(
//	    optsched.WithPolicy("delta2"),
//	    optsched.WithTopology(optsched.NUMATopology(2, 4)),
//	    optsched.WithBackend(optsched.BackendSim),
//	)
//	res, err := c.Run(ctx, optsched.SkewedScenario("burst", 400, 1500))
//	rep, err := c.Verify(ctx)
//
// The same Cluster.Run call executes the scenario on the bare model
// (BackendModel), the discrete-event simulator (BackendSim) or the real
// work-stealing executor (BackendExecutor), returning one common Result
// type — the paper's "prove once, run anywhere" claim as an API.
//
// The model-level types and round primitives below remain exported for
// direct use; the full surface (simulator behaviors, workloads, DSL,
// executor) lives in the internal packages, documented in README.md.
package optsched

import (
	"repro/internal/dsl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Core model types (see internal/sched).
type (
	// Task is a schedulable entity with an identity and load weight.
	Task = sched.Task
	// Core is one CPU's scheduling state: current task plus runqueue.
	Core = sched.Core
	// Machine is the global state: one Core per CPU.
	Machine = sched.Machine
	// Policy is the paper's three-step policy abstraction.
	Policy = sched.Policy
	// FuncPolicy assembles a Policy from closures.
	FuncPolicy = sched.FuncPolicy
	// RoundResult reports one balancing round's attempts.
	RoundResult = sched.RoundResult
	// Attempt is one core's participation in a round.
	Attempt = sched.Attempt
	// Counters tallies rounds, steals, failed steals and faults: the
	// shared part of every backend's Result.
	Counters = sched.Counters
	// Rescuer is the optional Policy extension that re-homes tasks
	// orphaned by fail-stop core faults (see FaultEvent, Scenario.Faults
	// and the DSL's rescue clause).
	Rescuer = sched.Rescuer
)

// Verification types (see internal/verify).
type (
	// Report aggregates proof-obligation results for one policy.
	Report = verify.Report
	// ObligationID names one proof obligation.
	ObligationID = verify.ObligationID
	// Universe bounds the state space the checker quantifies over.
	Universe = statespace.Universe
	// VerifyConfig parameterizes a verification run.
	VerifyConfig = verify.Config
)

// Topology types (see internal/topology).
type (
	// Topology describes NUMA nodes and the distances between them.
	Topology = topology.Topology
)

// Machine construction.
var (
	// NewMachine returns n empty cores.
	NewMachine = sched.NewMachine
	// MachineFromLoads builds a machine from per-core thread counts.
	MachineFromLoads = sched.MachineFromLoads
)

// Round execution: the three steps of Figure 1.
var (
	// Select runs steps 1-2 (lock-free filter + choice). It allocates
	// nothing: the attempt's Candidates live in the view's own buffers
	// and are valid until the next selection for that thief on that view.
	Select = sched.Select
	// Steal runs step 3 (locked, re-validated migration).
	Steal = sched.Steal
	// SequentialRound executes a §4.2 non-overlapping round.
	SequentialRound = sched.SequentialRound
	// ConcurrentRound executes a §3.1 optimistic round with the given
	// adversarial steal order.
	ConcurrentRound = sched.ConcurrentRound
	// PairwiseImbalance computes the §4.3 potential function d.
	PairwiseImbalance = sched.PairwiseImbalance
)

// Built-in policies.
var (
	// NewDelta2 is Listing 1's simple balancer (proved work-conserving).
	NewDelta2 = policy.NewDelta2
	// NewWeighted is the niceness-weighted balancer (proved).
	NewWeighted = policy.NewWeighted
	// NewCFSGroupBuggy models the Lozi et al. group-imbalance bug
	// (refuted: fails Lemma 1).
	NewCFSGroupBuggy = policy.NewCFSGroupBuggy
	// NewHierarchical is the §5 two-level balancer (proved).
	NewHierarchical = policy.NewHierarchical
	// NewNUMAAware is Delta2 with a locality-preferring choice step.
	NewNUMAAware = policy.NewNUMAAware
	// NewPolicy looks up a built-in policy by name.
	NewPolicy = policy.New
	// NewPolicyWithTopology looks up a built-in policy by name, building
	// topology-needing policies (numa-aware) over the given topology.
	NewPolicyWithTopology = policy.NewWithTopology
	// PolicyNames lists the built-in policies.
	PolicyNames = policy.Names
	// PolicySpecs lists the built-in policies with their registry
	// metadata (provenance, topology needs, one-line docs), sorted.
	PolicySpecs = policy.Specs
	// LookupPolicy returns the registry metadata for one policy name.
	LookupPolicy = policy.Lookup
	// RegisterPolicy adds a policy spec to the global registry, making it
	// available to WithPolicy and the command-line tools.
	RegisterPolicy = policy.Register
)

// Policy-registry metadata types (see internal/policy).
type (
	// PolicySpec is one registry entry: constructor plus metadata.
	PolicySpec = policy.Spec
	// PolicyFactory constructs a policy instance per call: a fresh one
	// for a stateful policy, possibly a shared one for a stateless one.
	PolicyFactory = policy.Factory
	// Provenance classifies a registered policy's verification status.
	Provenance = policy.Provenance
)

// Topologies.
var (
	// FlatTopology is a single-node machine.
	FlatTopology = topology.Flat
	// NUMATopology builds nodes × perNode cores.
	NUMATopology = topology.NUMA
	// AssignGroups stamps a machine's cores with the topology's node
	// assignment (Group and Node per core).
	AssignGroups = policy.AssignGroups
)

// DefaultUniverse is the verifier's default bounded state space.
var DefaultUniverse = verify.DefaultUniverse

// DSL entry points.
var (
	// ParsePolicy parses and type-checks DSL source.
	ParsePolicy = dsl.Parse
	// CompilePolicy turns DSL source into an executable Policy.
	CompilePolicy = dsl.CompileSource
	// GeneratePolicyGo emits Go source for a parsed DSL policy.
	GeneratePolicyGo = dsl.Generate
)

// Simulation types and entry points (see internal/sim for the full
// workload API).
type (
	// Simulator is the discrete-event multicore simulator.
	Simulator = sim.Simulator
	// SimConfig parameterizes a simulation.
	SimConfig = sim.Config
	// SimStats is the measurement snapshot of a run.
	SimStats = sim.Stats
)

// NewSimulator builds a simulator.
var NewSimulator = sim.New

// Tracing (see internal/trace).
type (
	// TraceRing is a fixed-capacity ring buffer of scheduler trace
	// events, attachable to the simulator backend via WithTrace.
	TraceRing = trace.Ring
)

// NewTraceRing builds a trace ring holding the last n events.
var NewTraceRing = trace.NewRing
